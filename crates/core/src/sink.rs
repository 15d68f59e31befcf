//! Consumers of the per-iteration telemetry stream: the [`TelemetrySink`]
//! trait and the two sinks the workspace ships ([`MemorySink`],
//! [`JsonlSink`]).
//!
//! Telemetry stays off the hot path: with no sink attached a
//! [`Session`](crate::Session) never builds an event and never calls
//! [`Strategy::explain`](crate::Strategy::explain) (which for the GP
//! strategies costs a full surrogate refit).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::IterationEvent;

/// Consumer of per-iteration telemetry.
///
/// Sinks are `Send` so a session holding them can move into a worker
/// thread (sinks with shared buffers use `Arc<Mutex<…>>`, never
/// `Rc<RefCell<…>>`).
pub trait TelemetrySink: Send {
    /// Called once per session iteration, after the observation is
    /// recorded.
    fn on_iteration(&mut self, event: &IterationEvent);

    /// Called by [`Session::finish`](crate::Session::finish); flush
    /// buffers here and surface any I/O error swallowed during the run —
    /// telemetry the user asked for must not vanish silently.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// In-memory sink for tests and programmatic inspection.
///
/// Cloning shares the underlying buffer, so a test can keep a handle
/// while handing a clone to the session.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<IterationEvent>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<IterationEvent>> {
        // Event pushes can't corrupt the buffer; ignore poisoning.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<IterationEvent> {
        self.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no event was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl TelemetrySink for MemorySink {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.lock().push(event.clone());
    }
}

/// Sink writing one [`IterationEvent::to_json`] line per iteration.
///
/// Mid-run I/O errors never abort the tuning loop; the *first* error is
/// latched and returned from [`TelemetrySink::finish`], so a failing
/// writer surfaces instead of silently dropping iterations.
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap any writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, error: None }
    }

    /// Recover the writer (e.g. a `Vec<u8>` buffer in tests).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> TelemetrySink for JsonlSink<W> {
    fn on_iteration(&mut self, event: &IterationEvent) {
        // Telemetry must never abort a tuning run mid-flight; keep the
        // first error for `finish` to report.
        if let Err(e) = writeln!(self.writer, "{}", event.to_json()) {
            self.error.get_or_insert(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        let flush = self.writer.flush();
        self.error.take().map_or(flush, Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::{response, space};
    use crate::{ActionSpace, GpDiscontinuous, Observation, Session, Strategy, StrategyKind};

    #[test]
    fn memory_sink_sees_one_event_per_iteration() {
        let sp = space();
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(GpDiscontinuous::new(&sp)))
            .sink(Box::new(sink.clone()))
            .best_known(response(6))
            .build()
            .unwrap();
        d.run(12, |n| Observation::of(response(n)));
        let events = sink.events();
        assert_eq!(events.len(), d.history().len());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.iteration, i);
            assert_eq!(e.strategy, "GP-discontinuous");
            assert!(e.trace.is_some(), "sink wants traces by default");
            assert_eq!(e.regret.unwrap(), e.duration - response(6));
            assert_eq!(e.retries, 0);
            assert_eq!(e.fault, None, "fault-free runs carry no annotation");
        }
        // Cumulative time is monotone and matches the history total.
        let last = events.last().unwrap();
        assert!((last.cumulative_time - d.history().total_time()).abs() < 1e-9);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_iteration() {
        let sp = space();
        let strat = StrategyKind::GpDiscontinuous.build(&sp, 0, None).unwrap();
        // Route through a shared buffer we can read back.
        struct Tee(Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut d = Session::builder(&sp)
            .strategy(strat)
            .sink(Box::new(JsonlSink::new(Tee(buf.clone()))))
            .build()
            .unwrap();
        d.run(8, |n| Observation::of(response(n)));
        d.finish().expect("no I/O errors on an in-memory buffer");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        for line in lines {
            assert!(line.starts_with("{\"iteration\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }
    }

    /// A writer that fails every call, as a stand-in for a closed file.
    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "writer closed"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_jsonl_writer_surfaces_an_error_from_finish() {
        let sp = ActionSpace::unstructured(4);
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .sink(Box::new(JsonlSink::new(FailingWriter)))
            .build()
            .unwrap();
        // The run itself is never aborted by telemetry failures...
        d.run(3, |_| Observation::of(1.0));
        assert_eq!(d.history().len(), 3);
        // ...but finish reports the first error instead of dropping it.
        let err = d.finish().expect_err("sink error must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The latched error is raised exactly once.
        assert!(d.finish().is_ok(), "handled errors are not raised twice");
    }

    #[test]
    fn drivers_and_sinks_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<MemorySink>();
        assert_send::<JsonlSink<io::Sink>>();
        assert_send::<JsonlSink<BufWriter<File>>>();
        assert_send::<Box<dyn TelemetrySink>>();
        assert_send::<Box<dyn Strategy>>();
    }

    #[test]
    fn driver_with_sink_moves_across_threads() {
        let sp = space();
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(GpDiscontinuous::new(&sp)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let handle = std::thread::spawn(move || {
            d.run(4, |n| Observation::of(response(n)));
            d.into_history().len()
        });
        assert_eq!(handle.join().unwrap(), 4);
        assert_eq!(sink.len(), 4);
    }
}
