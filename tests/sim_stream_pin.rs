//! Ordering pin below CSV level: the simulator's trace-event stream and
//! its network totals, hashed.
//!
//! Every figure of the evaluation rests on the simulated durations being
//! the same bits from one commit to the next. A reordered `start_task`
//! (which shifts every later jitter draw of a "(Real)" scenario) or a
//! flow completing one ulp early used to surface only as a `fig6.csv`
//! byte diff, sixteen scenarios and a replay pipeline away from the cause.
//! This test pins the cause: FNV-1a over the `(start, end, node, task,
//! resource)` stream of two consecutive iterations, with a checkpoint
//! every [`STRIDE`] events so a failure names the block of the first
//! diverging event and prints it.
//!
//! The constants were recorded on the commit that introduced the test and
//! must only change together with a documented change of the simulated
//! model (DESIGN.md §5d) — never as a side effect of an optimisation. To
//! re-record, run with `--nocapture`: a failing pin prints its actual
//! values in source form.

use adaphet::geostat::IterationChoice;
use adaphet::runtime::{ResourceKind, TraceEvent};
use adaphet::scenarios::{Scale, Scenario};

const SEED: u64 = 42;
/// Events between two hash checkpoints.
const STRIDE: usize = 64;

struct Pin {
    scenario: char,
    /// Number of trace events of the two iterations.
    events: usize,
    /// Running hash after each full block of [`STRIDE`] events, then the
    /// hash of the whole stream.
    checkpoints: &'static [u64],
    bytes_transferred: u64,
    backbone_busy: u64,
}

/// (a) is "(Real)": every task draws its jitter from the runtime's RNG at
/// `start_task`, so the stream also covers RNG draw order.
const PIN_A: Pin = Pin {
    scenario: 'a',
    events: 830,
    checkpoints: &[
        0x605e_2ed3_e166_21c7,
        0xf550_8d9f_8447_cd22,
        0x0953_4995_33cf_090c,
        0xda89_f2a6_f8b2_78b9,
        0x297a_7b7a_3a3c_4780,
        0x3bd4_3229_e67d_9bd0,
        0xa4fb_2042_9a83_8cfc,
        0xe910_7aac_c161_8361,
        0xda7d_31f4_c9a8_d75f,
        0x6d21_42b4_cbcf_44d4,
        0x1e78_a7d8_ca83_3850,
        0x54b1_67ee_8f63_7a47,
        0xb0a8_a6ad_ee49_a249,
    ],
    bytes_transferred: 0x41a4_8310_0000_0000,
    backbone_busy: 0x3fa2_edb7_b369_6f59,
};

/// (d) is "(Simul)": no jitter, the stream is dispatch order and flow
/// arithmetic alone.
const PIN_D: Pin = Pin {
    scenario: 'd',
    events: 830,
    checkpoints: &[
        0xc067_2676_bf90_8b77,
        0x7be3_e85d_4664_3cce,
        0xf2f1_7dee_35d5_5874,
        0x22b9_60fa_a3e4_ed09,
        0xe606_6c02_c0b8_41dc,
        0x1b42_d374_2c3b_e252,
        0x2886_4956_03e4_5c56,
        0x96c7_15b5_8878_1c26,
        0x09ef_5269_f9ab_5775,
        0x0dbb_3cf7_04ee_daaa,
        0x6584_e5f5_1455_dd10,
        0x39c0_f829_a81f_dfe9,
        0x8121_166a_d3f7_61c0,
    ],
    bytes_transferred: 0x41b4_e400_0000_0000,
    backbone_busy: 0x3f91_8707_4608_0407,
};

fn fnv1a_u64(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn hash_event(h: u64, e: &TraceEvent) -> u64 {
    let resource = match e.resource {
        ResourceKind::CpuCore(i) => i as u64,
        ResourceKind::Gpu(i) => (1 << 32) | i as u64,
    };
    [e.start.to_bits(), e.end.to_bits(), e.node.0 as u64, e.task.0 as u64, resource]
        .into_iter()
        .fold(h, fnv1a_u64)
}

fn check(pin: &Pin) {
    let scen = Scenario::by_id(pin.scenario).expect("catalogue scenario");
    let n = scen.n_nodes();
    // Fewer factorization than generation nodes: the redistribution puts
    // real transfers on the network while generation tasks still run.
    let choice = IterationChoice::fact_only(n, n.div_ceil(2));
    let mut app = scen.app(Scale::Test, SEED);
    app.run_iteration(choice);
    app.run_iteration(choice);
    let rt = app.runtime();
    let events = rt.trace().events();

    let mut checkpoints = Vec::with_capacity(events.len() / STRIDE + 1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, e) in events.iter().enumerate() {
        h = hash_event(h, e);
        if (k + 1) % STRIDE == 0 {
            checkpoints.push(h);
        }
    }
    checkpoints.push(h);
    let bytes = rt.bytes_transferred().to_bits();
    let busy = rt.backbone_busy().to_bits();

    let actual = format!(
        "    events: {},\n    checkpoints: &{:#018x?},\n    bytes_transferred: {bytes:#018x},\n    \
         backbone_busy: {busy:#018x},",
        events.len(),
        checkpoints
    );
    if let Some(block) = checkpoints.iter().zip(pin.checkpoints).position(|(got, want)| got != want)
    {
        let lo = block * STRIDE;
        let hi = (lo + STRIDE).min(events.len());
        panic!(
            "scenario ({}): the event stream first diverges at an event index in {lo}..{hi} \
             (of {}); that block now reads {:#?}\nactual pin:\n{actual}",
            pin.scenario,
            events.len(),
            &events[lo..hi]
        );
    }
    assert!(
        events.len() == pin.events && checkpoints.len() == pin.checkpoints.len(),
        "scenario ({}): {} events recorded, {} pinned (the common prefix agrees)\nactual pin:\n{actual}",
        pin.scenario,
        events.len(),
        pin.events
    );
    assert!(
        bytes == pin.bytes_transferred && busy == pin.backbone_busy,
        "scenario ({}): the event stream agrees but the network totals moved: \
         bytes_transferred {} ({bytes:#018x}), backbone_busy {} ({busy:#018x})",
        pin.scenario,
        rt.bytes_transferred(),
        rt.backbone_busy()
    );
}

#[test]
fn scenario_a_jittered_stream_is_pinned() {
    check(&PIN_A);
}

#[test]
fn scenario_d_deterministic_stream_is_pinned() {
    check(&PIN_D);
}
