//! Service-mode primitives: the admin command queue and drain flag
//! that turn a run-to-completion engine into a steerable long-running
//! service.
//!
//! The admin surface (HTTP POST endpoints, config hot-reload, signal
//! handlers) never touches engine state directly. Commands are queued
//! through [`Engine::admin`](crate::Engine::admin) into a bounded
//! mailbox and drained by the **controller thread** once per epoch, so
//! every edit rides the existing lock-free publication machinery: the
//! controller mutates its private tables, marks itself dirty, and the
//! next epoch publishes a fresh [`SteeringSnapshot`] through the
//! `SnapshotCell` RCU path / [`ModeCell`] atomics. The packet hot loop
//! keeps taking zero locks.
//!
//! Graceful drain works the same way from the other side: callers
//! raise a flag ([`Engine::request_drain`](crate::Engine::request_drain));
//! dispatchers observe it at their 256-packet checkpoints, stop
//! offering, flush staged batches, and send the normal `Stop` markers
//! so the mesh quiesces exactly as at end-of-trace — every counter
//! folded, every verdict published, the segment report conserved.
//!
//! [`SteeringSnapshot`]: smartwatch_control::SteeringSnapshot
//! [`ModeCell`]: smartwatch_control::ModeCell

use serde::Serialize;
use smartwatch_snic::Mode;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One operator command, applied by the controller at the next epoch
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminCmd {
    /// Blacklist a flow digest (drops at dispatch; revokes any standing
    /// whitelist entry).
    BlacklistAdd(u64),
    /// Remove a digest from the steering blacklist.
    BlacklistRemove(u64),
    /// Whitelist a flow digest (survives load shedding; revokes any
    /// standing blacklist entry — the operator is authoritative).
    WhitelistAdd(u64),
    /// Remove a digest from the whitelist.
    WhitelistRemove(u64),
    /// `Some(v)`: pin load shedding to `v`, pausing the hysteresis.
    /// `None`: hand shedding back to the controller.
    ForceShed(Option<bool>),
    /// `Some(mode)`: pin one shard's FlowCache mode, overriding
    /// Algorithm 4 for that shard. `None`: release the override.
    ForceMode {
        /// Shard index the override applies to.
        shard: usize,
        /// Pinned mode, or `None` to release.
        mode: Option<Mode>,
    },
}

impl AdminCmd {
    /// Stable numeric code for flight-recorder events
    /// (`admin_edit.cmd`).
    pub fn code(&self) -> u64 {
        match self {
            AdminCmd::BlacklistAdd(_) => 1,
            AdminCmd::BlacklistRemove(_) => 2,
            AdminCmd::WhitelistAdd(_) => 3,
            AdminCmd::WhitelistRemove(_) => 4,
            AdminCmd::ForceShed(_) => 5,
            AdminCmd::ForceMode { .. } => 6,
        }
    }

    /// Payload word for flight-recorder events (`admin_edit.arg`): the
    /// digest, the forced-shed encoding (0 = release, 1 = off, 2 = on),
    /// or the target shard.
    pub fn arg(&self) -> u64 {
        match *self {
            AdminCmd::BlacklistAdd(d)
            | AdminCmd::BlacklistRemove(d)
            | AdminCmd::WhitelistAdd(d)
            | AdminCmd::WhitelistRemove(d) => d,
            AdminCmd::ForceShed(None) => 0,
            AdminCmd::ForceShed(Some(false)) => 1,
            AdminCmd::ForceShed(Some(true)) => 2,
            AdminCmd::ForceMode { shard, .. } => shard as u64,
        }
    }
}

/// Engine-lifetime service state ([`Engine::service`](crate::Engine::service)):
/// what `/stats.json` serves next to the per-run report. Every counter
/// here is cumulative over the engine's life, not per run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ServiceStats {
    /// A graceful drain is requested and not yet cleared.
    pub draining: bool,
    /// Admin commands waiting in the mailbox.
    pub admin_queued: u64,
    /// Admin commands the controller has applied.
    pub admin_applied: u64,
    /// The live pacing override, Mpps (`None`: the run's own plan).
    pub rate_override_mpps: Option<f64>,
    /// Batch buffers freshly allocated (`runtime.pool.allocated`).
    pub pool_allocated: u64,
    /// Batch buffers reused (`runtime.pool.recycled`).
    pub pool_recycled: u64,
    /// Frame slots freshly allocated (`runtime.frame_pool.allocated`).
    pub frame_pool_allocated: u64,
    /// Frame slots reused (`runtime.frame_pool.recycled`).
    pub frame_pool_recycled: u64,
    /// Resident set at the last sample (`runtime.mem.rss_bytes`).
    pub rss_bytes: u64,
    /// Events the flight recorder has recorded.
    pub flight_recorded: u64,
    /// Events the flight recorder's bounded rings overwrote.
    pub flight_dropped: u64,
}

/// Bounded multi-producer mailbox between the admin surface and the
/// controller thread. Pushes beyond the bound are refused (the caller
/// reports back-pressure to the operator); the controller drains the
/// whole queue once per epoch, so the bound is only ever hit by a
/// runaway client.
pub(crate) struct AdminQueue {
    cmds: Mutex<VecDeque<AdminCmd>>,
    cap: usize,
}

impl AdminQueue {
    pub fn new(cap: usize) -> AdminQueue {
        AdminQueue {
            cmds: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Enqueue a command; `false` when the mailbox is full.
    pub fn push(&self, cmd: AdminCmd) -> bool {
        let mut q = self.cmds.lock().expect("admin queue poisoned");
        if q.len() >= self.cap {
            return false;
        }
        q.push_back(cmd);
        true
    }

    /// Take everything queued, in arrival order.
    pub fn drain(&self) -> Vec<AdminCmd> {
        let mut q = self.cmds.lock().expect("admin queue poisoned");
        q.drain(..).collect()
    }

    /// Commands currently waiting.
    pub fn len(&self) -> usize {
        self.cmds.lock().expect("admin queue poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bounds_and_preserves_order() {
        let q = AdminQueue::new(2);
        assert!(q.push(AdminCmd::BlacklistAdd(1)));
        assert!(q.push(AdminCmd::WhitelistAdd(2)));
        assert!(!q.push(AdminCmd::BlacklistAdd(3)), "bound refuses");
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.drain(),
            vec![AdminCmd::BlacklistAdd(1), AdminCmd::WhitelistAdd(2)]
        );
        assert_eq!(q.len(), 0);
        assert!(
            q.push(AdminCmd::ForceShed(Some(true))),
            "drained queue accepts again"
        );
    }

    #[test]
    fn flight_codes_are_stable_and_distinct() {
        let cmds = [
            AdminCmd::BlacklistAdd(7),
            AdminCmd::BlacklistRemove(7),
            AdminCmd::WhitelistAdd(7),
            AdminCmd::WhitelistRemove(7),
            AdminCmd::ForceShed(Some(true)),
            AdminCmd::ForceMode {
                shard: 3,
                mode: Some(Mode::Lite),
            },
        ];
        let codes: Vec<u64> = cmds.iter().map(AdminCmd::code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), cmds.len());
        assert_eq!(AdminCmd::BlacklistAdd(7).arg(), 7);
        assert_eq!(AdminCmd::ForceShed(None).arg(), 0);
        assert_eq!(AdminCmd::ForceShed(Some(false)).arg(), 1);
        assert_eq!(AdminCmd::ForceShed(Some(true)).arg(), 2);
    }
}
