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
//! every `stride` events so a failure names the block of the first
//! diverging event and prints it. Each scenario is pinned twice: at
//! `Scale::Test` (830 events) and at `Scale::Reduced` (46 544 events,
//! many more concurrent flows), where most flow-network rebalances keep
//! the leading rounds of the last allocation and re-fill only the rest.
//!
//! The Test-scale constants were recorded on the commit that introduced
//! the test, the Reduced-scale ones on the last commit whose flow network
//! re-filled every rebalance from its first round; they must only change together with a documented change of the simulated
//! model (DESIGN.md §5d) — never as a side effect of an optimisation. To
//! re-record, run with `--nocapture`: a failing pin prints its actual
//! values in source form.

use adaphet::geostat::IterationChoice;
use adaphet::runtime::{ResourceKind, TraceEvent};
use adaphet::scenarios::{Scale, Scenario};

const SEED: u64 = 42;

struct Pin {
    scenario: char,
    scale: Scale,
    /// Events between two hash checkpoints.
    stride: usize,
    /// Number of trace events of the two iterations.
    events: usize,
    /// Running hash after each full block of `stride` events, then the
    /// hash of the whole stream.
    checkpoints: &'static [u64],
    bytes_transferred: u64,
    backbone_busy: u64,
}

/// (a) is "(Real)": every task draws its jitter from the runtime's RNG at
/// `start_task`, so the stream also covers RNG draw order.
const PIN_A: Pin = Pin {
    scenario: 'a',
    scale: Scale::Test,
    stride: 64,
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
    scale: Scale::Test,
    stride: 64,
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

/// (a) at `Scale::Reduced`: the same ten nodes over many more tiles, so many
/// more flows share the network at once.
const PIN_A_REDUCED: Pin = Pin {
    scenario: 'a',
    scale: Scale::Reduced,
    stride: 4096,
    events: 46544,
    checkpoints: &[
        0x3f1b_6d33_cad1_7366,
        0xd1b7_0daf_c0cd_eab9,
        0xb433_e56b_94a1_280a,
        0xfd5f_4357_cc49_f89a,
        0xcbda_d0f3_df45_403b,
        0x7bb5_4301_1204_2915,
        0xece3_db88_ae25_4960,
        0xff87_3367_7697_98fd,
        0x762a_2e5e_0152_77c6,
        0x6874_a30d_62cc_f8d0,
        0x2af9_48ca_5cfb_9aa0,
        0x68e7_e33f_2d2f_a8b0,
    ],
    bytes_transferred: 0x4232_4cda_a800_0000,
    backbone_busy: 0x402d_a811_c179_779b,
};

/// (d) at reduced scale.
const PIN_D_REDUCED: Pin = Pin {
    scenario: 'd',
    scale: Scale::Reduced,
    stride: 4096,
    events: 46544,
    checkpoints: &[
        0x3bb3_8fe0_f687_5726,
        0x9a78_f090_66e2_e398,
        0x79ea_1f11_c632_e86a,
        0x1d97_8c08_e623_c796,
        0xfff8_2f4d_732d_ca63,
        0xbe96_3a13_282c_441e,
        0xafbe_204b_3a3f_fc3d,
        0xe086_9691_2ac3_5e53,
        0xbd6b_bf68_b810_41cb,
        0x5491_0a6a_0223_6ec4,
        0xe87a_5241_4298_710a,
        0x8aff_985a_a59d_0303,
    ],
    bytes_transferred: 0x4244_ea39_4f00_0000,
    backbone_busy: 0x4014_2fef_0347_d07a,
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
    let mut app = scen.app(pin.scale, SEED);
    app.run_iteration(choice);
    app.run_iteration(choice);
    let rt = app.runtime();
    let events = rt.trace().events();

    let stride = pin.stride;
    let mut checkpoints = Vec::with_capacity(events.len() / stride + 1);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, e) in events.iter().enumerate() {
        h = hash_event(h, e);
        if (k + 1) % stride == 0 {
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
        let lo = block * stride;
        let hi = (lo + stride.min(64)).min(events.len());
        panic!(
            "scenario ({}, {:?}): the event stream first diverges at an event index in \
             {lo}..{} (of {}); its first events now read {:#?}\nactual pin:\n{actual}",
            pin.scenario,
            pin.scale,
            (lo + stride).min(events.len()),
            events.len(),
            &events[lo..hi]
        );
    }
    assert!(
        events.len() == pin.events && checkpoints.len() == pin.checkpoints.len(),
        "scenario ({}, {:?}): {} events recorded, {} pinned (the common prefix agrees)\n\
         actual pin:\n{actual}",
        pin.scenario,
        pin.scale,
        events.len(),
        pin.events
    );
    assert!(
        bytes == pin.bytes_transferred && busy == pin.backbone_busy,
        "scenario ({}, {:?}): the event stream agrees but the network totals moved: \
         bytes_transferred {} ({bytes:#018x}), backbone_busy {} ({busy:#018x})",
        pin.scenario,
        pin.scale,
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

#[test]
fn scenario_a_reduced_scale_stream_is_pinned() {
    check(&PIN_A_REDUCED);
}

#[test]
fn scenario_d_reduced_scale_stream_is_pinned() {
    check(&PIN_D_REDUCED);
}
