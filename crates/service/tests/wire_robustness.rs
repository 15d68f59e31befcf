//! Protocol robustness: malformed frames must not kill the connection,
//! and sessions must survive their creator's disconnection (tickets are
//! resolvable from a fresh connection).

#![cfg(unix)]

use adaphet_analysis::Json;
use adaphet_core::StrategyKind;
use adaphet_service::protocol::{read_frame, write_frame, Request, Response};
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

    // After all four, the same connection still serves real traffic.
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
