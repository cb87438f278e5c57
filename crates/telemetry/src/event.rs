//! The event taxonomy and the canonical merge key.
//!
//! One [`Event`] per observable engine action, TRACE-style: if it wasn't
//! emitted by the runtime, it didn't happen. Field types are primitives
//! (`NodeId` → `u32` index, `FunctionId` → `u32`, `Region` → its label)
//! so the telemetry crate stays dependency-free and a stream is
//! self-describing without the workspace's types.
//!
//! ## Stream identity across engines
//!
//! The sequential and sharded engines must serialize to *byte-identical*
//! streams. Both collect `(EventKey, Event)` pairs and only number and
//! hash them in key order, sealing sorted batches as they go
//! ([`crate::Chain`]). Identity is then structural — same event set,
//! same keys ⇒ same bytes — instead of depending on interleaving. The
//! key is a total order designed so the sorted stream reads like the
//! sequential engine executed:
//!
//! * `pos` — the global invocation index the event is anchored to: the
//!   invocation being replayed (decision/start/release lanes), the
//!   *expiry trigger* for container expiries (the first invocation index
//!   at or after the expiry instant — exactly where the sequential
//!   engine's lazy sweep settles it), or the first index of a period for
//!   boundary events. `trace.len()` anchors end-of-run events.
//! * `lane` — orders event classes at the same `pos`: run start, then
//!   the previous period closing, a period opening, CI observations,
//!   container expiries, reconciliation ops, fleet-membership changes
//!   and their pool drains, re-placement-pass migrations,
//!   per-invocation ops, run end.
//! * `a`, `b` — disambiguate within a lane (node/function for expiries,
//!   an emission counter for per-invocation and reconciliation ops).
//!
//! Keys are unique per run (debug-asserted in [`crate::Chain::seal`]), so
//! sorting admits exactly one serialization.

/// The stream format version `RunStarted` announces. Version 2 moved the
/// run's size and horizon from `RunStarted` to `RunEnded`, so the first
/// line of a stream no longer waits for the run to end.
pub const TRACE_VERSION: u64 = 2;

/// Lane constants for [`EventKey`]: the within-`pos` ordering of event
/// classes. `PERIOD_ENDED < PERIOD_STARTED` because at a boundary index
/// the previous period closes before the next opens.
pub mod lane {
    pub const RUN_STARTED: u8 = 0;
    pub const PERIOD_ENDED: u8 = 1;
    pub const PERIOD_STARTED: u8 = 2;
    pub const CI_OBSERVED: u8 = 3;
    pub const EXPIRY: u8 = 4;
    pub const RECONCILE: u8 = 5;
    /// A fleet-membership change (node join/leave) at its trigger index.
    pub const MEMBERSHIP: u8 = 6;
    /// Containers released from a leaving node's pool (`a` = membership
    /// event index, `b` = function id).
    pub const MEMBER_OUT: u8 = 7;
    /// Drained containers landing on their transfer targets.
    pub const MEMBER_IN: u8 = 8;
    /// A node crash or recovery at its trigger index (`a` = fault
    /// index, `b` = 0 for the crash, 1 for the recovery).
    pub const CRASH: u8 = 9;
    /// Containers lost when their node crashed (`a` = fault index,
    /// `b` = function id). Crashes are ungraceful: nothing lands
    /// anywhere, so there is no `CRASH_IN`.
    pub const CRASH_OUT: u8 = 10;
    /// A carbon-intensity feed going stale or recovering (`a` = fault
    /// index, `b` = 0 for stale, 1 for restored).
    pub const CI_HEALTH: u8 = 11;
    /// An inter-region partition starting or healing (`a` = fault
    /// index, `b` = 0 for start, 1 for heal).
    pub const PARTITION: u8 = 12;
    /// Containers released by the periodic re-placement pass (`a` =
    /// function id, `b` = `pass_index << 16 | source_node`).
    pub const REPLACE_OUT: u8 = 13;
    /// Re-placed containers landing on their targets.
    pub const REPLACE_IN: u8 = 14;
    pub const INVOCATION: u8 = 15;
    pub const RUN_ENDED: u8 = 16;
}

/// The canonical sort key every emitted event carries until
/// finalization. Ordering is the derived lexicographic
/// `(pos, lane, a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Global invocation index anchor (see module docs).
    pub pos: u64,
    /// Event-class lane (see [`lane`]).
    pub lane: u8,
    /// Within-lane discriminator: node index (expiries), region index
    /// (CI observations), or emission counter (invocation/reconcile ops).
    pub a: u32,
    /// Second discriminator: function id for expiries, else 0.
    pub b: u32,
}

impl EventKey {
    pub const fn new(pos: u64, lane: u8, a: u32, b: u32) -> Self {
        EventKey { pos, lane, a, b }
    }
}

/// Why a warm container left its pool before expiring on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseCause {
    /// Consumed by a warm start of its own function.
    Reused,
    /// Replaced by a newer keep-alive of the same function (at install
    /// or as a transfer landed on its node).
    Replaced,
    /// Displaced by the scheduler's warm-pool adjustment to make room
    /// for an incoming container.
    Displaced,
    /// Lost when its node crashed ungracefully: the keep-alive is
    /// settled at the crash instant and nothing is transferred.
    Crashed,
}

impl ReleaseCause {
    pub fn as_str(self) -> &'static str {
        match self {
            ReleaseCause::Reused => "reused",
            ReleaseCause::Replaced => "replaced",
            ReleaseCause::Displaced => "displaced",
            ReleaseCause::Crashed => "crashed",
        }
    }
}

/// One observable action of the replay engine.
///
/// Settlement-bearing events (`Expired`, `Released`) are emitted only
/// when the container actually accrued resident time (mirroring the
/// engine's accounting, which skips zero-duration settlements);
/// `Revoked` is always emitted — the revocation itself is observable
/// even when the stay settled to nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Replay begins: catalog and fleet size, and the stream format
    /// ([`TRACE_VERSION`]). It carries nothing a live run learns only at
    /// its end, so it is emitted as index 0 is ingested.
    RunStarted {
        functions: u64,
        nodes: u64,
        trace_version: u64,
    },
    /// An active wall-clock minute opens (minutes with no arrivals are
    /// skipped, same as the engine's period batching).
    PeriodStarted { minute: u64 },
    /// The previous active minute closes.
    PeriodEnded { minute: u64 },
    /// Carbon intensity observed at a period boundary, once per
    /// *distinct* grid region backing the fleet.
    CiObserved {
        region: String,
        t_ms: u64,
        gco2_per_kwh: f64,
    },
    /// The scheduler's raw placement for one invocation. `exec_node` is
    /// the scheduler's choice — a warm hit overrides it with the warm
    /// location (see the matching `WarmHit`). `ka_node` is `-1` when no
    /// keep-alive was scheduled.
    DecisionMade {
        index: u64,
        func: u32,
        t_ms: u64,
        exec_node: u32,
        warm: bool,
        ka_node: i64,
        ka_ms: u64,
    },
    /// A cold start: where it actually executed and what it cost.
    ColdStarted {
        index: u64,
        func: u32,
        node: u32,
        t_ms: u64,
        service_ms: u64,
        service_g: f64,
        energy_kwh: f64,
    },
    /// A warm start served from `node`'s pool.
    WarmHit {
        index: u64,
        func: u32,
        node: u32,
        t_ms: u64,
        service_ms: u64,
        service_g: f64,
        energy_kwh: f64,
    },
    /// A keep-alive lapsed on its own and was settled at its expiry.
    Expired {
        node: u32,
        func: u32,
        since_ms: u64,
        expiry_ms: u64,
        keepalive_g: f64,
        energy_kwh: f64,
    },
    /// A container left its pool early; `keepalive_g`/`energy_kwh` are
    /// the settled cost of its actual stay `[since_ms, end_ms)`.
    Released {
        cause: ReleaseCause,
        node: u32,
        func: u32,
        since_ms: u64,
        end_ms: u64,
        keepalive_g: f64,
        energy_kwh: f64,
    },
    /// A displaced or revoked container restarted its keep-alive on
    /// another node. `egress_g` is the priced migration's network
    /// carbon, charged to the *source* node's grid at `t_ms`;
    /// `latency_ms` is the re-warm debt added to the function's next
    /// service. Both are 0 under `TransferCost::free()`-style configs.
    Transferred {
        func: u32,
        from: u32,
        to: u32,
        t_ms: u64,
        egress_g: f64,
        latency_ms: u64,
    },
    /// A node joined or left the fleet mid-trace (maintenance /
    /// autoscale event). A leaving node has already drained its pool
    /// (see the `MEMBER_OUT`/`MEMBER_IN` lanes).
    MembershipChanged { node: u32, t_ms: u64, joined: bool },
    /// The reconciliation pass revoked an optimistic cross-shard
    /// admission (sharded engine only; the container is then transferred
    /// or evicted).
    Revoked {
        node: u32,
        func: u32,
        t_ms: u64,
        keepalive_g: f64,
        energy_kwh: f64,
    },
    /// Bounded executors only: the invocation found `node`'s executor
    /// saturated and joined its queue behind `depth - 1` earlier waiters
    /// (`depth` counts this one). Emitted together with the matching
    /// [`Event::Dequeued`] — the virtual clock resolves the wait
    /// immediately.
    Enqueued {
        index: u64,
        func: u32,
        node: u32,
        t_ms: u64,
        depth: u32,
    },
    /// Bounded executors only: a queued invocation reached a free slot at
    /// `start_ms` after waiting `queue_ms` (the measured queueing delay
    /// added to its service time).
    Dequeued {
        index: u64,
        func: u32,
        node: u32,
        start_ms: u64,
        queue_ms: u64,
    },
    /// Bounded executors only: admission control turned the invocation
    /// away — `node`'s executor queue was already holding `depth` waiters
    /// (its configured bound). The invocation is recorded as rejected and
    /// never executes.
    AdmissionRejected {
        index: u64,
        func: u32,
        node: u32,
        t_ms: u64,
        depth: u32,
    },
    /// A node crashed ungracefully: its warm pool is lost (settled at
    /// the crash instant in the `CRASH_OUT` lane) and its executor
    /// queue is cleared. `recover_ms` is when it comes back.
    NodeCrashed {
        node: u32,
        t_ms: u64,
        recover_ms: u64,
    },
    /// A crashed node recovered and accepts placements again (its warm
    /// pool restarts empty).
    NodeRecovered { node: u32, t_ms: u64 },
    /// A region's carbon-intensity feed went stale: until `until_ms`
    /// the provider serves the last-known-good reading taken at `t_ms`.
    CiStale {
        region: String,
        t_ms: u64,
        until_ms: u64,
    },
    /// A stale carbon-intensity feed recovered to live data.
    CiRestored { region: String, t_ms: u64 },
    /// An inter-region partition opened: cross-region transfers between
    /// `regions` (comma-joined labels) and the rest of the fleet fail
    /// until `until_ms`.
    PartitionStarted {
        regions: String,
        t_ms: u64,
        until_ms: u64,
    },
    /// A partition healed; inter-region transfers resume.
    PartitionHealed { regions: String, t_ms: u64 },
    /// A keep-alive transfer found every candidate target unreachable
    /// (partitioned or crashed) and probed again after a deterministic
    /// virtual-clock backoff of `backoff_ms` (attempt `attempt`,
    /// counted from 1).
    TransferRetried {
        func: u32,
        node: u32,
        t_ms: u64,
        attempt: u32,
        backoff_ms: u64,
    },
    /// The invocation was routed to a node that is crashed at `t_ms`;
    /// it is recorded as a zero-carbon rejected invocation and never
    /// executes.
    CrashRejected {
        index: u64,
        func: u32,
        node: u32,
        t_ms: u64,
    },
    /// Replay ends: the run's headline counters and its horizon (the
    /// last arrival's instant).
    RunEnded {
        invocations: u64,
        transfers: u64,
        evictions: u64,
        revocations: u64,
        expired: u64,
        horizon_ms: u64,
    },
}

impl Event {
    /// The `"type"` tag serialized into every line.
    pub fn type_name(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "RunStarted",
            Event::PeriodStarted { .. } => "PeriodStarted",
            Event::PeriodEnded { .. } => "PeriodEnded",
            Event::CiObserved { .. } => "CiObserved",
            Event::DecisionMade { .. } => "DecisionMade",
            Event::ColdStarted { .. } => "ColdStarted",
            Event::WarmHit { .. } => "WarmHit",
            Event::Expired { .. } => "Expired",
            Event::Released { .. } => "Released",
            Event::Transferred { .. } => "Transferred",
            Event::MembershipChanged { .. } => "MembershipChanged",
            Event::Revoked { .. } => "Revoked",
            Event::Enqueued { .. } => "Enqueued",
            Event::Dequeued { .. } => "Dequeued",
            Event::AdmissionRejected { .. } => "AdmissionRejected",
            Event::NodeCrashed { .. } => "NodeCrashed",
            Event::NodeRecovered { .. } => "NodeRecovered",
            Event::CiStale { .. } => "CiStale",
            Event::CiRestored { .. } => "CiRestored",
            Event::PartitionStarted { .. } => "PartitionStarted",
            Event::PartitionHealed { .. } => "PartitionHealed",
            Event::TransferRetried { .. } => "TransferRetried",
            Event::CrashRejected { .. } => "CrashRejected",
            Event::RunEnded { .. } => "RunEnded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_pos_then_lane_then_discriminators() {
        let mut keys = vec![
            EventKey::new(3, lane::INVOCATION, 1, 0),
            EventKey::new(3, lane::EXPIRY, 0, 7),
            EventKey::new(3, lane::EXPIRY, 0, 2),
            EventKey::new(2, lane::RUN_ENDED, 0, 0),
            EventKey::new(3, lane::PERIOD_ENDED, 0, 0),
            EventKey::new(3, lane::PERIOD_STARTED, 0, 0),
            EventKey::new(3, lane::INVOCATION, 0, 0),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                EventKey::new(2, lane::RUN_ENDED, 0, 0),
                EventKey::new(3, lane::PERIOD_ENDED, 0, 0),
                EventKey::new(3, lane::PERIOD_STARTED, 0, 0),
                EventKey::new(3, lane::EXPIRY, 0, 2),
                EventKey::new(3, lane::EXPIRY, 0, 7),
                EventKey::new(3, lane::INVOCATION, 0, 0),
                EventKey::new(3, lane::INVOCATION, 1, 0),
            ]
        );
    }
}
