//! Multi-sink driver integration: several telemetry sinks attached to one
//! [`Session`] must observe identical event streams, a failing writer
//! must surface an error instead of silently dropping iterations, and a
//! driver carrying sinks must move across threads (sinks are `Send`).

use adaphet::eval::ChromeTraceSink;
use adaphet::tuner::{
    ActionSpace, IterationEvent, JsonlSink, MemorySink, Observation, Session, StrategyKind,
    TelemetrySink,
};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A `Write` target shared with the test (JsonlSink wants ownership).
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn driver_with(space: &ActionSpace, sinks: Vec<Box<dyn TelemetrySink>>) -> Session {
    let strat = StrategyKind::GpDiscontinuous.build(space, 11, None).expect("no oracle needed");
    let mut d = Session::builder(space).strategy(strat).build().expect("a strategy was provided");
    for s in sinks {
        d.add_sink(s);
    }
    d
}

#[test]
fn three_sinks_observe_identical_event_streams() {
    let space = ActionSpace::unstructured(6);
    let buf = Shared::default();
    let memory = MemorySink::new();
    let chrome = ChromeTraceSink::new();
    let mut driver = driver_with(
        &space,
        vec![
            Box::new(JsonlSink::new(buf.clone())),
            Box::new(memory.clone()),
            Box::new(chrome.clone()),
        ],
    );
    let iters = 9;
    driver.run(iters, |n| Observation::of(30.0 / n as f64 + n as f64));
    driver.finish().expect("all sinks flush");

    let events: Vec<IterationEvent> = memory.events();
    assert_eq!(events.len(), iters);

    // The JSONL stream is exactly the memory events' serialization.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), iters);
    for (line, event) in lines.iter().zip(&events) {
        assert_eq!(*line, event.to_json());
    }

    // The chrome sink saw the same iterations: one instant + one counter
    // event each, with matching action values.
    let chrome_events = chrome.tuner_events();
    assert_eq!(chrome_events.len(), 2 * iters);
    for (i, event) in events.iter().enumerate() {
        assert!(
            chrome_events[2 * i].contains(&format!("\"action\":{}", event.action)),
            "iteration {i}: {}",
            chrome_events[2 * i]
        );
    }
}

/// A writer that accepts nothing: every write fails.
struct BrokenPipe;

impl Write for BrokenPipe {
    fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "nope"))
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn failing_writer_surfaces_an_error_and_other_sinks_keep_their_events() {
    let space = ActionSpace::unstructured(4);
    let memory = MemorySink::new();
    let mut driver =
        driver_with(&space, vec![Box::new(JsonlSink::new(BrokenPipe)), Box::new(memory.clone())]);
    driver.run(5, |n| Observation::of(8.0 / n as f64));
    // The healthy sink kept the full stream despite its broken peer...
    assert_eq!(memory.events().len(), 5);
    // ...and the failure is reported, not silently dropped.
    let err = driver.finish().expect_err("broken writer must surface");
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
}

#[test]
fn driver_with_all_sink_kinds_moves_across_threads() {
    let space = ActionSpace::unstructured(5);
    let memory = MemorySink::new();
    let mut driver = driver_with(
        &space,
        vec![
            Box::new(JsonlSink::new(io::sink())),
            Box::new(memory.clone()),
            Box::new(ChromeTraceSink::new()),
        ],
    );
    let handle = std::thread::spawn(move || {
        driver.run(4, |n| Observation::of(10.0 / n as f64));
        driver.finish().expect("sinks flush");
        driver.into_history().len()
    });
    assert_eq!(handle.join().expect("worker thread"), 4);
    assert_eq!(memory.events().len(), 4);
}
