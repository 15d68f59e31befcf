//! Golden tests pinning the bytes of every wire frame and of the fault-plan
//! format.
//!
//! The frame format is the contract deployed clients parse. Each of the 10
//! request and 12 response variants is pinned as one byte string with every
//! optional populated and one with every optional absent/`null`; each string
//! also decodes back to the value it was made from. Non-finite floats (which
//! travel as `null` and therefore cannot round-trip) and the frames older
//! peers send are pinned separately.

use adaphet::analysis::Json;
use adaphet::runtime::FaultPlan;
use adaphet::service::protocol::{Request, Response};
use adaphet::service::{
    ErrorCode, HealthInfo, SessionEvent, SessionSpec, ShardStats, StatsSnapshot, VerbStats,
};
use adaphet::tuner::{PosteriorPoint, StrategyKind};

fn parse_request(text: &str) -> Result<Request, String> {
    Request::from_json(&Json::parse(text).expect("pinned frame is JSON"))
}

fn parse_response(text: &str) -> Result<Response, String> {
    Response::from_json(&Json::parse(text).expect("pinned frame is JSON"))
}

fn pin_request(req: Request, bytes: &str) {
    assert_eq!(req.to_json(), bytes);
    assert_eq!(parse_request(bytes).unwrap(), req, "decoding {bytes}");
}

fn pin_response(resp: Response, bytes: &str) {
    assert_eq!(resp.to_json(), bytes);
    assert_eq!(parse_response(bytes).unwrap(), resp, "decoding {bytes}");
}

#[test]
fn create_session_frames() {
    pin_request(
        Request::CreateSession(SessionSpec {
            strategy: StrategyKind::GpDiscontinuous,
            seed: 7,
            max_nodes: 10,
            groups: vec![(1, 5), (6, 10)],
            lp: Some(vec![30.0, 15.5, 1e-7]),
            iters: Some(40),
            best_known: Some(5.5),
            oracle_best: Some(3),
            resilience: true,
            max_in_flight: Some(4),
            warm_start: Some(0.8),
        }),
        "{\"type\":\"create_session\",\"strategy\":\"GP-discontinuous\",\"seed\":7,\
         \"max_nodes\":10,\"groups\":[[1,5],[6,10]],\"lp\":[30,15.5,0.0000001],\"iters\":40,\
         \"best_known\":5.5,\"oracle_best\":3,\"resilience\":\"standard\",\"max_in_flight\":4,\
         \"warm_start\":0.8}",
    );
    pin_request(
        Request::CreateSession(SessionSpec::new(StrategyKind::Ucb, 0, 3)),
        "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":0,\"max_nodes\":3,\
         \"groups\":[],\"lp\":null,\"iters\":null,\"best_known\":null,\"oracle_best\":null,\
         \"resilience\":\"off\",\"max_in_flight\":null,\"warm_start\":null}",
    );
    // An empty (but present) LP curve is not the same as no curve.
    let mut empty_lp = SessionSpec::new(StrategyKind::Ucb, 1, 2);
    empty_lp.lp = Some(Vec::new());
    pin_request(
        Request::CreateSession(empty_lp),
        "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":1,\"max_nodes\":2,\
         \"groups\":[],\"lp\":[],\"iters\":null,\"best_known\":null,\"oracle_best\":null,\
         \"resilience\":\"off\",\"max_in_flight\":null,\"warm_start\":null}",
    );
}

#[test]
fn session_verb_request_frames() {
    pin_request(Request::GetProposal { session: 12 }, "{\"type\":\"get_proposal\",\"session\":12}");
    pin_request(
        Request::SubmitObservation { session: 12, ticket: 3, duration: 1.25 },
        "{\"type\":\"submit_observation\",\"session\":12,\"ticket\":3,\"duration\":1.25}",
    );
    pin_request(
        Request::GetPosterior { session: 12 },
        "{\"type\":\"get_posterior\",\"session\":12}",
    );
    pin_request(
        Request::CloseSession { session: 12 },
        "{\"type\":\"close_session\",\"session\":12}",
    );
    pin_request(Request::Inspect { session: 12 }, "{\"type\":\"inspect\",\"session\":12}");
    pin_request(Request::GetHealth { session: 12 }, "{\"type\":\"get_health\",\"session\":12}");
}

#[test]
fn bare_request_frames() {
    pin_request(Request::GetStats, "{\"type\":\"get_stats\"}");
    pin_request(Request::Ping, "{\"type\":\"ping\"}");
    pin_request(Request::Shutdown, "{\"type\":\"shutdown\"}");
}

#[test]
fn tuning_loop_response_frames() {
    pin_response(
        Response::SessionCreated { session: 5 },
        "{\"type\":\"session_created\",\"session\":5}",
    );
    pin_response(
        Response::Proposal { session: 5, ticket: 2, iteration: 9, action: 7 },
        "{\"type\":\"proposal\",\"session\":5,\"ticket\":2,\"iteration\":9,\"action\":7}",
    );
    pin_response(
        Response::Recorded {
            session: 5,
            iteration: 3,
            action: 7,
            duration: 1.5,
            cumulative_time: 6.25,
        },
        "{\"type\":\"recorded\",\"session\":5,\"iteration\":3,\"action\":7,\"duration\":1.5,\
         \"cumulative_time\":6.25}",
    );
    pin_response(
        Response::Retry { session: 5, ticket: 2, action: 7, attempt: 1 },
        "{\"type\":\"retry\",\"session\":5,\"ticket\":2,\"action\":7,\"attempt\":1}",
    );
}

#[test]
fn posterior_frames() {
    pin_response(
        Response::Posterior {
            session: 5,
            points: Some(vec![
                PosteriorPoint {
                    action: 1,
                    mean: 2.5,
                    sd: 0.25,
                    lp_bound: Some(1.5),
                    excluded: true,
                },
                PosteriorPoint { action: 2, mean: 2.0, sd: 0.5, lp_bound: None, excluded: false },
            ]),
        },
        "{\"type\":\"posterior\",\"session\":5,\"points\":[\
         {\"action\":1,\"mean\":2.5,\"sd\":0.25,\"lp_bound\":1.5,\"excluded\":true},\
         {\"action\":2,\"mean\":2,\"sd\":0.5,\"lp_bound\":null,\"excluded\":false}]}",
    );
    pin_response(
        Response::Posterior { session: 5, points: Some(Vec::new()) },
        "{\"type\":\"posterior\",\"session\":5,\"points\":[]}",
    );
    pin_response(
        Response::Posterior { session: 5, points: None },
        "{\"type\":\"posterior\",\"session\":5,\"points\":null}",
    );
}

#[test]
fn closed_frames() {
    pin_response(
        Response::Closed {
            session: 5,
            iterations: 40,
            total_time: 123.5,
            best_action: Some(6),
            history: vec![(10, 3.25), (6, 2.0)],
        },
        "{\"type\":\"closed\",\"session\":5,\"iterations\":40,\"total_time\":123.5,\
         \"best_action\":6,\"history\":[[10,3.25],[6,2]]}",
    );
    pin_response(
        Response::Closed {
            session: 5,
            iterations: 0,
            total_time: 0.0,
            best_action: None,
            history: Vec::new(),
        },
        "{\"type\":\"closed\",\"session\":5,\"iterations\":0,\"total_time\":0,\
         \"best_action\":null,\"history\":[]}",
    );
}

#[test]
fn stats_frames() {
    pin_response(
        Response::Stats(StatsSnapshot {
            version: "0.1.0-\"rc\"".into(),
            uptime_s: 12.5,
            draining: true,
            sessions_live: 3,
            sessions_created: 8,
            sessions_closed: 4,
            sessions_evicted: 1,
            sessions_drained: 2,
            in_flight: 5,
            connections: 9,
            requests: 120,
            malformed: 1,
            errors: 2,
            verbs: vec![
                VerbStats {
                    verb: "get_proposal".into(),
                    count: 40,
                    p50: 0.001,
                    p95: 0.01,
                    p99: 0.05,
                },
                VerbStats { verb: "ping".into(), count: 1, p50: 0.0, p95: 0.0, p99: 0.0 },
            ],
            shards: vec![
                ShardStats { shard: 0, sessions: 2, queue_depth: 1 },
                ShardStats { shard: 1, sessions: 1, queue_depth: 0 },
            ],
        }),
        "{\"type\":\"stats\",\"version\":\"0.1.0-\\\"rc\\\"\",\"uptime_s\":12.5,\
         \"draining\":true,\"sessions\":{\"live\":3,\"created\":8,\"closed\":4,\"evicted\":1,\
         \"drained\":2},\"in_flight\":5,\"connections\":9,\"requests\":120,\"malformed\":1,\
         \"errors\":2,\"verbs\":[\
         {\"verb\":\"get_proposal\",\"count\":40,\"p50\":0.001,\"p95\":0.01,\"p99\":0.05},\
         {\"verb\":\"ping\",\"count\":1,\"p50\":0,\"p95\":0,\"p99\":0}],\"shards\":[\
         {\"shard\":0,\"sessions\":2,\"queue_depth\":1},\
         {\"shard\":1,\"sessions\":1,\"queue_depth\":0}]}",
    );
    pin_response(
        Response::Stats(StatsSnapshot::default()),
        "{\"type\":\"stats\",\"version\":\"\",\"uptime_s\":0,\"draining\":false,\
         \"sessions\":{\"live\":0,\"created\":0,\"closed\":0,\"evicted\":0,\"drained\":0},\
         \"in_flight\":0,\"connections\":0,\"requests\":0,\"malformed\":0,\"errors\":0,\
         \"verbs\":[],\"shards\":[]}",
    );
}

#[test]
fn inspected_frames() {
    pin_response(
        Response::Inspected {
            session: 5,
            strategy: "GP-\tdisc\\ontinuous".into(),
            iterations: 7,
            cumulative_time: 12.25,
            pending: vec![(3, 8), (4, 2)],
            events: vec![
                SessionEvent {
                    seq: 0,
                    t_s: 0.5,
                    kind: "created".into(),
                    ticket: None,
                    action: None,
                    iteration: None,
                    duration: None,
                },
                SessionEvent {
                    seq: 1,
                    t_s: 0.75,
                    kind: "recorded".into(),
                    ticket: Some(0),
                    action: Some(8),
                    iteration: Some(0),
                    duration: Some(1.5),
                },
            ],
            events_dropped: 17,
        },
        "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"GP-\\tdisc\\\\ontinuous\",\
         \"iterations\":7,\"cumulative_time\":12.25,\"pending\":[[3,8],[4,2]],\"events\":[\
         {\"seq\":0,\"t_s\":0.5,\"kind\":\"created\",\"ticket\":null,\"action\":null,\
         \"iteration\":null,\"duration\":null},\
         {\"seq\":1,\"t_s\":0.75,\"kind\":\"recorded\",\"ticket\":0,\"action\":8,\
         \"iteration\":0,\"duration\":1.5}],\"events_dropped\":17}",
    );
    pin_response(
        Response::Inspected {
            session: 5,
            strategy: "UCB".into(),
            iterations: 0,
            cumulative_time: 0.0,
            pending: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
        },
        "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"UCB\",\"iterations\":0,\
         \"cumulative_time\":0,\"pending\":[],\"events\":[],\"events_dropped\":0}",
    );
}

#[test]
fn health_frames() {
    let full = HealthInfo {
        session: 5,
        state: "warn".into(),
        reason: Some("fault-pressure".into()),
        records: 20,
        since_best: 4,
        regret_slope: Some(-0.015),
        retries_window: 1,
        faults_window: 2,
        posterior_sd_max: Some(0.75),
        lp_gap: Some(2.5),
        band_record: Some(9),
        warm_started: true,
        transitions: 3,
    };
    let full_fields = "\"session\":5,\"state\":\"warn\",\"reason\":\"fault-pressure\",\
                       \"records\":20,\"since_best\":4,\"regret_slope\":-0.015,\
                       \"retries_window\":1,\"faults_window\":2,\"posterior_sd_max\":0.75,\
                       \"lp_gap\":2.5,\"band_record\":9,\"warm_started\":true,\"transitions\":3";
    // `/health` embeds exactly the frame's fields, minus the type tag.
    assert_eq!(full.json_fields(), full_fields);
    pin_response(Response::Health(full), &format!("{{\"type\":\"health\",{full_fields}}}"));
    pin_response(
        Response::Health(HealthInfo {
            session: 0,
            state: "ok".into(),
            reason: None,
            records: 0,
            since_best: 0,
            regret_slope: None,
            retries_window: 0,
            faults_window: 0,
            posterior_sd_max: None,
            lp_gap: None,
            band_record: None,
            warm_started: false,
            transitions: 0,
        }),
        "{\"type\":\"health\",\"session\":0,\"state\":\"ok\",\"reason\":null,\"records\":0,\
         \"since_best\":0,\"regret_slope\":null,\"retries_window\":0,\"faults_window\":0,\
         \"posterior_sd_max\":null,\"lp_gap\":null,\"band_record\":null,\"warm_started\":false,\
         \"transitions\":0}",
    );
}

#[test]
fn liveness_and_error_frames() {
    pin_response(
        Response::Pong { version: "0.1.0".into(), uptime_s: 3.5 },
        "{\"type\":\"pong\",\"version\":\"0.1.0\",\"uptime_s\":3.5}",
    );
    pin_response(Response::ShuttingDown, "{\"type\":\"shutting_down\"}");
    pin_response(
        Response::Error {
            code: ErrorCode::UnknownSession,
            message: "session 99: \"gone\"\n\u{1}".into(),
        },
        "{\"type\":\"error\",\"code\":\"unknown-session\",\
         \"message\":\"session 99: \\\"gone\\\"\\n\\u0001\"}",
    );
    for code in [
        ErrorCode::MalformedFrame,
        ErrorCode::BadRequest,
        ErrorCode::UnknownSession,
        ErrorCode::UnknownTicket,
        ErrorCode::TooManyInFlight,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ] {
        pin_response(
            Response::Error { code, message: String::new() },
            &format!("{{\"type\":\"error\",\"code\":\"{code}\",\"message\":\"\"}}"),
        );
    }
}

/// Non-finite floats travel as `null`, so these frames pin their bytes
/// and what a peer reads back rather than a round trip.
#[test]
fn non_finite_floats_encode_as_null() {
    let lost = Request::SubmitObservation { session: 1, ticket: 2, duration: f64::NAN };
    let bytes = "{\"type\":\"submit_observation\",\"session\":1,\"ticket\":2,\"duration\":null}";
    assert_eq!(lost.to_json(), bytes);
    assert!(parse_request(bytes).is_err(), "a duration is required");

    let mut spec = SessionSpec::new(StrategyKind::Ucb, 1, 2);
    spec.lp = Some(vec![1.0, f64::INFINITY]);
    spec.best_known = Some(f64::NEG_INFINITY);
    spec.warm_start = Some(f64::NAN);
    let bytes = "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":1,\"max_nodes\":2,\
                 \"groups\":[],\"lp\":[1,null],\"iters\":null,\"best_known\":null,\
                 \"oracle_best\":null,\"resilience\":\"off\",\"max_in_flight\":null,\
                 \"warm_start\":null}";
    assert_eq!(Request::CreateSession(spec).to_json(), bytes);
    assert!(parse_request(bytes).is_err(), "an LP curve holds numbers only");

    let points = Response::Posterior {
        session: 5,
        points: Some(vec![PosteriorPoint {
            action: 1,
            mean: f64::NAN,
            sd: f64::INFINITY,
            lp_bound: Some(f64::NAN),
            excluded: false,
        }]),
    };
    let bytes = "{\"type\":\"posterior\",\"session\":5,\"points\":[\
                 {\"action\":1,\"mean\":null,\"sd\":null,\"lp_bound\":null,\"excluded\":false}]}";
    assert_eq!(points.to_json(), bytes);
    match parse_response(bytes).unwrap() {
        Response::Posterior { session: 5, points: Some(ps) } => {
            assert_eq!(ps.len(), 1);
            assert!(ps[0].mean.is_nan() && ps[0].sd.is_nan());
            assert_eq!((ps[0].action, ps[0].lp_bound, ps[0].excluded), (1, None, false));
        }
        other => panic!("{other:?}"),
    }

    let recorded = Response::Recorded {
        session: 5,
        iteration: 0,
        action: 1,
        duration: f64::INFINITY,
        cumulative_time: f64::NAN,
    };
    let bytes = "{\"type\":\"recorded\",\"session\":5,\"iteration\":0,\"action\":1,\
                 \"duration\":null,\"cumulative_time\":null}";
    assert_eq!(recorded.to_json(), bytes);
    assert!(parse_response(bytes).is_err(), "both times are required");

    let pong = Response::Pong { version: String::new(), uptime_s: f64::NAN };
    let bytes = "{\"type\":\"pong\",\"version\":\"\",\"uptime_s\":null}";
    assert_eq!(pong.to_json(), bytes);
    assert_eq!(
        parse_response(bytes).unwrap(),
        Response::Pong { version: String::new(), uptime_s: 0.0 }
    );
}

/// Frames as older peers send them: fields added later decode to the
/// defaults that keep the old meaning.
#[test]
fn older_peer_frames_decode_to_defaults() {
    let spec = |text: &str| match parse_request(text).unwrap() {
        Request::CreateSession(spec) => spec,
        other => panic!("{other:?}"),
    };
    let minimal = "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"max_nodes\":4}";
    assert_eq!(spec(minimal), SessionSpec::new(StrategyKind::Ucb, 0, 4));
    let no_warm = "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":1,\"max_nodes\":4,\
                   \"groups\":[],\"lp\":null,\"iters\":null,\"best_known\":null,\
                   \"oracle_best\":null,\"resilience\":\"off\",\"max_in_flight\":null}";
    assert_eq!(spec(no_warm), SessionSpec::new(StrategyKind::Ucb, 1, 4));

    let no_drops = "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"ucb\",\"iterations\":2,\
                    \"cumulative_time\":1.5,\"pending\":[],\"events\":[]}";
    let expect = Response::Inspected {
        session: 5,
        strategy: "ucb".into(),
        iterations: 2,
        cumulative_time: 1.5,
        pending: Vec::new(),
        events: Vec::new(),
        events_dropped: 0,
    };
    assert_eq!(parse_response(no_drops).unwrap(), expect);

    assert_eq!(
        parse_response("{\"type\":\"pong\"}").unwrap(),
        Response::Pong { version: String::new(), uptime_s: 0.0 }
    );
    assert_eq!(
        parse_response("{\"type\":\"stats\"}").unwrap(),
        Response::Stats(StatsSnapshot::default())
    );
    assert_eq!(
        parse_response("{\"type\":\"error\"}").unwrap(),
        Response::Error { code: ErrorCode::Internal, message: "unspecified error".into() }
    );
    // A code this build does not know is still an error the caller sees.
    assert_eq!(
        parse_response("{\"type\":\"error\",\"code\":\"out-of-cheese\",\"message\":\"m\"}")
            .unwrap(),
        Response::Error { code: ErrorCode::Internal, message: "m".into() }
    );
}

#[test]
fn fault_plan_bytes_and_checked_in_plans() {
    let plan = FaultPlan::new(7).death(15, 5).slowdown(10, 20, 3, 4.0).outlier(12, 6.5);
    let bytes = "{\"seed\":7,\"events\":[{\"kind\":\"node_death\",\"iteration\":15,\"rank\":5},\
                 {\"kind\":\"slowdown\",\"from\":10,\"until\":20,\"rank\":3,\"factor\":4},\
                 {\"kind\":\"outlier\",\"iteration\":12,\"factor\":6.5}]}";
    assert_eq!(plan.to_json(), bytes);
    assert_eq!(FaultPlan::from_json(bytes).unwrap(), plan);
    assert_eq!(FaultPlan::new(3).to_json(), "{\"seed\":3,\"events\":[]}");

    let read = |name: &str| {
        let path = format!("{}/plans/{name}", env!("CARGO_MANIFEST_DIR"));
        FaultPlan::from_json(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    assert_eq!(read("death.json"), FaultPlan::new(42).death(15, 5));
    assert_eq!(read("straggler.json"), FaultPlan::new(42).slowdown(10, 25, 3, 4.0));
}
