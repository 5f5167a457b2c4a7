//! Lock-free service counters.
//!
//! Every number a soak harness needs to prove "zero hangs, zero leaks,
//! clean drain" lives here as an atomic: connections accepted vs finished,
//! requests shed vs completed, requests that reused a kept connection,
//! panics caught, workers respawned, deadline trailers emitted. A [`StatsSnapshot`] freezes the counters into a plain
//! struct that renders as one NDJSON line — the same line `GET /v1/stats`
//! serves and the CLI prints on shutdown.

use std::sync::atomic::{AtomicU64, Ordering};

use act_json::{JsonObject, JsonValue, ToJson};

/// Shared atomic counters; one instance per [`crate::Server`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub accepted: AtomicU64,
    /// Connections fully handled (response written or abandoned).
    pub finished: AtomicU64,
    /// Requests that completed with a 2xx response.
    pub completed: AtomicU64,
    /// Requests that arrived on a connection that had already carried one.
    pub reused: AtomicU64,
    /// Requests shed with 503 because the admission queue was full.
    pub shed: AtomicU64,
    /// Requests rejected with a 4xx (framing, size, validation).
    pub bad_requests: AtomicU64,
    /// Requests that hit the socket read timeout.
    pub timeouts: AtomicU64,
    /// Handler panics caught and converted to 500s.
    pub panics_caught: AtomicU64,
    /// Worker threads respawned after dying.
    pub workers_respawned: AtomicU64,
    /// Streaming responses that ended with a deadline trailer.
    pub deadline_trailers: AtomicU64,
    /// Requests currently being processed (gauge).
    pub in_flight: AtomicU64,
    /// Connections currently queued for admission (gauge).
    pub queued: AtomicU64,
}

impl ServerStats {
    /// Bumps `counter` by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the counters into a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            deadline_trailers: self.deadline_trailers.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
        }
    }
}

/// A frozen view of [`ServerStats`], renderable as one JSON object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Connections fully handled.
    pub finished: u64,
    /// Requests that completed with a 2xx response.
    pub completed: u64,
    /// Requests served on an already-used connection.
    pub reused: u64,
    /// Requests shed with 503.
    pub shed: u64,
    /// Requests rejected with a 4xx.
    pub bad_requests: u64,
    /// Read timeouts.
    pub timeouts: u64,
    /// Panics converted to 500s.
    pub panics_caught: u64,
    /// Workers respawned.
    pub workers_respawned: u64,
    /// Streaming responses cut off by deadline.
    pub deadline_trailers: u64,
    /// Requests in flight at snapshot time.
    pub in_flight: u64,
    /// Connections queued at snapshot time.
    pub queued: u64,
}

impl StatsSnapshot {
    /// `true` when no connection is anywhere in the pipeline — the drain
    /// loop's termination condition.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.queued == 0
    }
}

impl ToJson for StatsSnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            JsonObject::new()
                .with("accepted", self.accepted.to_json())
                .with("finished", self.finished.to_json())
                .with("completed", self.completed.to_json())
                .with("reused", self.reused.to_json())
                .with("shed", self.shed.to_json())
                .with("bad_requests", self.bad_requests.to_json())
                .with("timeouts", self.timeouts.to_json())
                .with("panics_caught", self.panics_caught.to_json())
                .with("workers_respawned", self.workers_respawned.to_json())
                .with("deadline_trailers", self.deadline_trailers.to_json())
                .with("in_flight", self.in_flight.to_json())
                .with("queued", self.queued.to_json()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_every_counter() {
        let stats = ServerStats::default();
        ServerStats::bump(&stats.accepted);
        ServerStats::bump(&stats.panics_caught);
        ServerStats::bump(&stats.reused);
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.panics_caught, 1);
        assert_eq!(snap.reused, 1);
        let line = snap.to_json().render_compact();
        for key in [
            "accepted",
            "finished",
            "completed",
            "reused",
            "shed",
            "bad_requests",
            "timeouts",
            "panics_caught",
            "workers_respawned",
            "deadline_trailers",
            "in_flight",
            "queued",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(snap.is_idle());
    }
}
