//! Protocol robustness: malformed frames must not kill the connection,
//! and sessions must survive their creator's disconnection (tickets are
//! resolvable from a fresh connection).

#![cfg(unix)]

use adaphet_analysis::{Json, TelemetryRun};
use adaphet_core::StrategyKind;
use adaphet_service::protocol::{read_frame, write_frame, HealthInfo, Request, Response};
use adaphet_service::top::{render_health_ascii, PanelHistory};
use adaphet_service::{
    Client, ClientError, Endpoint, ErrorCode, Server, ServiceConfig, SessionManager, SessionSpec,
    Submitted,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adaphet-rob-{}-{tag}.sock", std::process::id()))
}

fn start(tag: &str) -> (PathBuf, Server) {
    let path = uds_path(tag);
    let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
    let server = Server::bind(Endpoint::Uds(path.clone()), manager).unwrap();
    (path, server)
}

fn read_reply(conn: &mut UnixStream) -> Response {
    let payload = read_frame(conn).unwrap().expect("server replied");
    Response::from_json(&Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()).unwrap()
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_lives_on() {
    let (path, mut server) = start("malformed");
    let mut conn = UnixStream::connect(&path).unwrap();

    // 1. Binary garbage (not UTF-8) under a well-formed length prefix.
    conn.write_all(&4u32.to_be_bytes()).unwrap();
    conn.write_all(&[0xff, 0xfe, 0x00, 0x80]).unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }

    // 2. Truncated JSON document.
    write_frame(&mut conn, "{\"type\":\"pi").unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("{other:?}"),
    }

    // 3. Valid JSON, unknown request type.
    write_frame(&mut conn, "{\"type\":\"warp-core-breach\"}").unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("{other:?}"),
    }

    // 4. Valid request shape, invalid spec (oracle without its best).
    write_frame(&mut conn, "{\"type\":\"create_session\",\"strategy\":\"oracle\",\"max_nodes\":4}")
        .unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("{other:?}"),
    }

    // 5. A frame of brackets nested far past the parser's depth cap: a
    // typed error, not a stack overflow on the connection's thread.
    write_frame(&mut conn, &"[".repeat(100_000)).unwrap();
    match read_reply(&mut conn) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::MalformedFrame);
            assert!(message.contains("nesting deeper than"), "{message}");
        }
        other => panic!("{other:?}"),
    }

    // After all five, the same connection still serves real traffic.
    write_frame(&mut conn, &Request::Ping.to_json()).unwrap();
    assert!(matches!(read_reply(&mut conn), Response::Pong { .. }));

    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// Integers on the wire are finite, non-negative and integral or the
/// frame is refused: no count is truncated or saturated into a session
/// nobody asked for (`"max_nodes":7.9` used to create 7 nodes).
#[test]
fn non_integer_counts_are_bad_requests_and_the_connection_lives_on() {
    let (path, mut server) = start("integers");
    let mut conn = UnixStream::connect(&path).unwrap();
    let create =
        |members: &str| format!("{{\"type\":\"create_session\",\"strategy\":\"UCB\",{members}}}");
    let bad = [
        (create("\"max_nodes\":7.9"), "max_nodes"),
        (create("\"max_nodes\":-4"), "max_nodes"),
        (create("\"max_nodes\":4,\"seed\":-1"), "seed"),
        (create("\"max_nodes\":4,\"iters\":2.5"), "iters"),
        (create("\"max_nodes\":4,\"iters\":-3"), "iters"),
        (create("\"max_nodes\":4,\"oracle_best\":1.5"), "oracle_best"),
        (create("\"max_nodes\":4,\"oracle_best\":-1"), "oracle_best"),
        (create("\"max_nodes\":4,\"max_in_flight\":0.5"), "max_in_flight"),
        (create("\"max_nodes\":4,\"max_in_flight\":-2"), "max_in_flight"),
        (create("\"max_nodes\":4,\"groups\":[[1,2.5],[3,4]]"), "groups"),
        (create("\"max_nodes\":4,\"groups\":[[-1,4]]"), "groups"),
        ("{\"type\":\"get_proposal\",\"session\":0.5}".to_string(), "session"),
        (
            "{\"type\":\"submit_observation\",\"session\":0,\"ticket\":-1,\"duration\":1}".into(),
            "ticket",
        ),
    ];
    for (frame, field) in &bad {
        write_frame(&mut conn, frame).unwrap();
        match read_reply(&mut conn) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest, "{frame}");
                assert!(message.contains(&format!("'{field}'")), "{frame}: {message}");
            }
            other => panic!("{frame}: {other:?}"),
        }
    }

    // The next valid frame on the same connection is served, and the
    // session it creates has exactly the size it asked for.
    write_frame(&mut conn, &create("\"max_nodes\":4,\"iters\":3,\"groups\":[[1,2],[3,4]]"))
        .unwrap();
    let Response::SessionCreated { session } = read_reply(&mut conn) else { panic!("no session") };
    write_frame(&mut conn, &Request::GetProposal { session }.to_json()).unwrap();
    match read_reply(&mut conn) {
        Response::Proposal { action, .. } => assert!((1..=4).contains(&action)),
        other => panic!("{other:?}"),
    }

    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// A measurement that is not a duration is refused before it reaches the
/// session: recorded, `1e999` (which `str::parse::<f64>` reads as `inf`)
/// makes `cumulative_time` infinite and the next `get_proposal` loses the
/// session to a strategy panic, and `-3.5` becomes the session's best.
/// The ticket stays open for the real measurement.
#[test]
fn durations_that_are_not_durations_are_refused_and_the_ticket_stays_open() {
    let path = uds_path("durations");
    let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
    let mut server = Server::bind(Endpoint::Uds(path.clone()), Arc::clone(&manager)).unwrap();
    let mut conn = UnixStream::connect(&path).unwrap();
    let spec = "\"strategy\":\"GP-discontinuous\",\"max_nodes\":8,\"lp\":[8,4,3,2,2,2,2,1]";
    write_frame(&mut conn, &format!("{{\"type\":\"create_session\",{spec}}}")).unwrap();
    let Response::SessionCreated { session } = read_reply(&mut conn) else { panic!("no session") };
    write_frame(&mut conn, &Request::GetProposal { session }.to_json()).unwrap();
    let Response::Proposal { ticket, .. } = read_reply(&mut conn) else { panic!("no proposal") };
    let submit = |duration: &str| {
        format!(
            "{{\"type\":\"submit_observation\",\"session\":{session},\"ticket\":{ticket},\
             \"duration\":{duration}}}"
        )
    };

    let refused = |reply: Response, want: ErrorCode, needle: &str| match reply {
        Response::Error { code, message } => {
            assert_eq!(code, want, "{message}");
            assert!(message.contains(needle), "{message}");
        }
        other => panic!("a non-duration was answered {other:?}"),
    };
    // Over the wire: the overflowing literal is not a JSON number this
    // layer reads, the negative one is not a duration.
    write_frame(&mut conn, &submit("1e999")).unwrap();
    refused(read_reply(&mut conn), ErrorCode::MalformedFrame, "bad number");
    write_frame(&mut conn, &submit("-3.5")).unwrap();
    refused(read_reply(&mut conn), ErrorCode::BadRequest, "-3.5");
    // In-process callers hand the manager an `f64` directly.
    for (duration, printed) in [(f64::INFINITY, "inf"), (f64::NAN, "NaN")] {
        let reply = manager.handle(Request::SubmitObservation { session, ticket, duration });
        refused(reply, ErrorCode::BadRequest, printed);
    }

    // Nothing reached the session: the ticket is still open, nothing is
    // charged, and the three refusals are in the event ring.
    write_frame(&mut conn, &Request::Inspect { session }.to_json()).unwrap();
    match read_reply(&mut conn) {
        Response::Inspected { pending, cumulative_time, events, .. } => {
            assert_eq!(pending.len(), 1);
            assert_eq!(pending[0].0, ticket);
            assert_eq!(cumulative_time, 0.0);
            assert_eq!(events.iter().filter(|e| e.kind == "error").count(), 3);
        }
        other => panic!("{other:?}"),
    }

    // The same ticket resolves with a real duration and the session
    // proposes again.
    write_frame(&mut conn, &submit("2.5")).unwrap();
    match read_reply(&mut conn) {
        Response::Recorded { duration, cumulative_time, .. } => {
            assert_eq!((duration, cumulative_time), (2.5, 2.5));
        }
        other => panic!("{other:?}"),
    }
    write_frame(&mut conn, &Request::GetProposal { session }.to_json()).unwrap();
    assert!(matches!(read_reply(&mut conn), Response::Proposal { .. }));

    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// The client side of the same rule: a reply whose integers are not
/// integers is a protocol error, not action 0.
#[test]
fn replies_with_mangled_integers_do_not_decode() {
    let decode = |text: &str| Response::from_json(&Json::parse(text).unwrap());
    let ok = "{\"type\":\"proposal\",\"session\":1,\"ticket\":0,\"iteration\":0,\"action\":3}";
    assert!(decode(ok).is_ok());
    for (from, to, field) in [
        ("\"action\":3", "\"action\":-1", "action"),
        ("\"iteration\":0", "\"iteration\":0.5", "iteration"),
        ("\"session\":1", "\"session\":-1", "session"),
        ("\"ticket\":0", "\"ticket\":1e30", "ticket"),
    ] {
        let err = decode(&ok.replace(from, to)).unwrap_err();
        assert!(err.contains(&format!("'{field}'")), "{to}: {err}");
    }
    let closed = "{\"type\":\"closed\",\"session\":1,\"iterations\":1,\"total_time\":2,\
                  \"best_action\":null,\"history\":[[2.5,2]]}";
    assert!(decode(closed).unwrap_err().contains("'history'"));
}

#[test]
fn sessions_survive_a_mid_measurement_disconnect() {
    let (path, mut server) = start("reconnect");

    // Client A creates a session, takes a proposal... and vanishes.
    let (id, ticket, action) = {
        let mut a = Client::connect_uds(&path).unwrap();
        let id = a.create_session(SessionSpec::new(StrategyKind::Ucb, 7, 8)).unwrap();
        let (ticket, _, action) = a.get_proposal(id).unwrap();
        (id, ticket, action)
        // `a` drops here: the socket closes with the ticket open.
    };

    // Client B resolves A's ticket over a fresh connection — sessions
    // belong to the manager, not to the socket that created them.
    let mut b = Client::connect_uds(&path).unwrap();
    match b.submit(id, ticket, 2.5).unwrap() {
        Submitted::Recorded { iteration, .. } => assert_eq!(iteration, 0),
        other => panic!("{other:?}"),
    }
    let closed = b.close_session(id).unwrap();
    assert_eq!(closed.history, vec![(action, 2.5)]);

    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_closed_server_socket_reads_as_clean_eof_for_the_client() {
    let (path, mut server) = start("eof");
    let mut client = Client::connect_uds(&path).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
    // The daemon stopped; the next call fails with a transport error or a
    // clean "closed before replying", never a hang or a panic.
    match client.ping() {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a transport failure, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A fully populated telemetry line (the golden of
/// `tests/telemetry_schema.rs`).
const TELEMETRY_LINE: &str = "{\"iteration\":3,\"strategy\":\"GP-discontinuous\",\"action\":7,\
    \"duration\":1.5,\"cumulative_time\":12.25,\"best_known\":1.25,\"regret\":0.25,\
    \"phases\":[{\"name\":\"factorization\",\"seconds\":1},{\"name\":\"solve\",\"seconds\":0.5}],\
    \"posterior\":[{\"action\":7,\"mean\":1.5,\"sd\":0.125,\"acquisition\":1.25}],\
    \"excluded\":[1,2],\"note\":\"gp-lcb\",\"phase_breakdown\":{\"phases\":[\
    {\"name\":\"generation\",\"seconds\":0.25},{\"name\":\"solve\",\"seconds\":1.25}],\
    \"groups\":[{\"name\":\"chifflot:1-2\",\"busy_s\":3,\"idle_s\":1,\"utilization\":0.75}]},\
    \"retries\":1,\"fault\":\"node-death:rank=5;rebaseline\",\"snapshot\":{\"points\":[\
    {\"action\":1,\"mean\":8.5,\"sd\":0.5,\"lp_bound\":10,\"excluded\":true},\
    {\"action\":7,\"mean\":1.5,\"sd\":0.125,\"lp_bound\":null,\"excluded\":false}]}}";

/// The `/health` document of `adaphet-top`'s unit tests.
const HEALTH_DOC: &str = r#"{"uptime_s":3.5,"draining":false,"sessions":[
    {"session":1,"state":"ok","reason":null,"records":12,"since_best":2,
     "regret_slope":-0.01,"retries_window":0,"faults_window":0,
     "posterior_sd_max":null,"lp_gap":null,"band_record":4,
     "warm_started":false,"transitions":0},
    {"session":2,"state":"warn","reason":"fault-pressure","records":17,
     "since_best":5,"regret_slope":0.002,"retries_window":1,
     "faults_window":1,"posterior_sd_max":0.4,"lp_gap":1.5,
     "band_record":null,"warm_started":true,"transitions":2}]}"#;

/// One response frame of every kind, as the daemon writes them.
const RESPONSES: [&str; 12] = [
    r#"{"type":"session_created","session":5}"#,
    r#"{"type":"proposal","session":5,"ticket":2,"iteration":9,"action":7}"#,
    r#"{"type":"recorded","session":5,"iteration":3,"action":7,"duration":1.5,"cumulative_time":4}"#,
    r#"{"type":"retry","session":5,"ticket":2,"action":7,"attempt":1}"#,
    r#"{"type":"posterior","session":5,"points":[{"action":1,"mean":2.5,"sd":0.25,"lp_bound":1.5,"excluded":true},{"action":2,"mean":null,"sd":0.5,"lp_bound":null,"excluded":false}]}"#,
    r#"{"type":"closed","session":5,"iterations":40,"total_time":123.5,"best_action":6,"history":[[10,3.25],[6,2]]}"#,
    r#"{"type":"stats","version":"0.1.0","uptime_s":12.5,"draining":true,"sessions":{"live":3,"created":8,"closed":4,"evicted":1,"drained":2},"in_flight":5,"connections":9,"requests":120,"malformed":1,"errors":2,"verbs":[{"verb":"ping","count":1,"p50":0,"p95":0,"p99":0}],"shards":[{"shard":0,"sessions":2,"queue_depth":1}]}"#,
    r#"{"type":"inspected","session":5,"strategy":"UCB","iterations":7,"cumulative_time":12.25,"pending":[[3,8]],"events":[{"seq":1,"t_s":0.75,"kind":"recorded","ticket":0,"action":8,"iteration":0,"duration":1.5}],"events_dropped":17}"#,
    r#"{"type":"health","session":0,"state":"ok","reason":null,"records":0,"since_best":0,"regret_slope":null,"retries_window":0,"faults_window":0,"posterior_sd_max":null,"lp_gap":null,"band_record":null,"warm_started":false,"transitions":0}"#,
    r#"{"type":"pong","version":"0.1.0","uptime_s":3.5}"#,
    r#"{"type":"shutting_down"}"#,
    r#"{"type":"error","code":"unknown-session","message":"session 99: \"gone\"\n\u0001"}"#,
];

/// splitmix64: a fixed seed gives the same mutants on every run.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// `doc` after one to three byte mutations: a flipped bit, a
    /// truncation, a duplicated stretch or an inserted byte (JSON syntax
    /// more often than not).
    fn mutate(&mut self, doc: &str) -> Vec<u8> {
        const SYNTAX: &[u8] = b"{}[]\",:\\-.eE+0123456789nultrfas \x00\xc3\xff";
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..1 + self.below(3) {
            let at = self.below(bytes.len() + 1);
            match self.below(4) {
                0 if at < bytes.len() => bytes[at] ^= 1 << self.below(8),
                1 => bytes.truncate(at),
                2 => {
                    let len = self.below(16).min(bytes.len() - at);
                    let stretch = bytes[at..at + len].to_vec();
                    let to = self.below(bytes.len() + 1);
                    bytes.splice(to..to, stretch);
                }
                _ => {
                    let byte = if self.below(4) == 0 {
                        self.next() as u8
                    } else {
                        SYNTAX[self.below(SYNTAX.len())]
                    };
                    bytes.insert(at, byte);
                }
            }
        }
        bytes
    }
}

/// Every reader of the JSON the workspace writes answers a mangled
/// document with `Ok` or `Err` — never a panic. Fixed-seed byte mutants of
/// a telemetry line, one frame per request verb and response kind, and a
/// `/health` document go through `Json::parse` into the frame decoders,
/// the telemetry reader and the `/health` readers of `adaphet-top`.
#[test]
fn mutated_documents_never_panic_a_reader() {
    let mut spec = SessionSpec::new(StrategyKind::GpDiscontinuous, 7, 4);
    spec.groups = vec![(1, 2), (3, 4)];
    spec.lp = Some(vec![8.0, 4.0, 3.0, 2.0]);
    spec.iters = Some(40);
    spec.best_known = Some(1.5);
    spec.max_in_flight = Some(2);
    spec.warm_start = Some(0.5);
    let requests = [
        Request::CreateSession(spec),
        Request::GetProposal { session: 12 },
        Request::SubmitObservation { session: 12, ticket: 3, duration: 1.25 },
        Request::GetPosterior { session: 12 },
        Request::CloseSession { session: 12 },
        Request::GetStats,
        Request::Inspect { session: 12 },
        Request::GetHealth { session: 12 },
        Request::Ping,
        Request::Shutdown,
    ];
    let mut docs: Vec<String> = requests.iter().map(Request::to_json).collect();
    docs.extend(RESPONSES.iter().map(|r| r.to_string()));
    docs.push(TELEMETRY_LINE.to_string());
    docs.push(HEALTH_DOC.to_string());

    let mut rng = Mutator(0x5eed);
    let (mut decoded, mut refused) = (0usize, 0usize);
    for doc in &docs {
        for _ in 0..64 {
            let mutant = rng.mutate(doc);
            let text = String::from_utf8_lossy(&mutant);
            let results = [
                TelemetryRun::parse(&text).map(drop),
                Json::parse(&text).and_then(|v| {
                    let request = Request::from_json(&v).map(drop);
                    let response = Response::from_json(&v).map(drop);
                    let health = v.field::<Vec<HealthInfo>>("sessions").map(drop);
                    request.or(response).or(health)
                }),
            ];
            for result in results {
                if result.is_ok() {
                    decoded += 1;
                } else {
                    refused += 1;
                }
            }
            let _ = render_health_ascii(&text);
            PanelHistory::new(4).push(&Default::default(), Some(&text));
        }
    }
    assert!(decoded > 0 && refused > 0, "{decoded} decoded, {refused} refused");
}
