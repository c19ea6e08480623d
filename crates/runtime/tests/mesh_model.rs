//! Model-checking the SPSC lane discipline of the pipeline topology.
//!
//! The pipeline keeps each [`smartwatch_runtime::spsc`] ring strictly
//! single-producer/single-consumer: one dispatcher produces into N
//! lanes (one per shard), each lane has exactly one consumer (its
//! shard), and every drained batch buffer returns to the dispatcher's
//! one pool. `loom` is not available in this workspace, so this test
//! does the next best thing: it *exhaustively enumerates interleavings*
//! of the actors' productive steps with a DFS, replaying every schedule
//! from scratch on real rings (capacity 1, the most adversarial legal
//! size).
//!
//! Checked on every complete schedule:
//!
//! * exactly-once delivery — each batch the dispatcher pushes is
//!   consumed exactly once, by the shard it was pushed to;
//! * per-lane FIFO — a lane's batches arrive in push order, and its
//!   `Stop` marker arrives after all of its batches (drain-on-shutdown:
//!   a shard never abandons queued work when the dispatcher stops);
//! * recycler return path — every consumed batch buffer is returned to
//!   the dispatcher's one pool;
//! * no deadlock — from any reachable state, some actor can step until
//!   all are done.
//!
//! Steps are *productive by construction*: the dispatcher only steps
//! when its next message's lane has room (the engine's flat-out push
//! blocks on exactly that lane), a shard only steps when its lane has a
//! message. That keeps the schedule space finite (blocked actors busy
//! waiting would otherwise spin forever) while still covering every
//! ordering of the operations that change shared state.

use smartwatch_runtime::spsc::{spsc, Consumer, Producer};

/// Lane message, mirroring the engine's `ShardMsg`: a batch payload
/// (here just tagged ints standing in for `Vec<DigestedPacket>`
/// buffers) or the end-of-stream marker.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    Batch(Vec<u32>),
    Stop,
}

/// The dispatcher's script: `(lane, message)` in push order. Every
/// lane's `Stop` must come after its last batch, as the engine's
/// end-of-stream flush sends them.
type Script = Vec<(usize, Msg)>;

/// One replayed pipeline instance: one dispatcher × N lanes × N shards.
struct Model {
    producers: Vec<Producer<Msg>>,
    lanes: Vec<Consumer<Msg>>,
    /// Dispatcher messages not yet pushed (front = next).
    script: Script,
    /// Per shard: lane still open?
    open: Vec<bool>,
    /// Per shard: payloads delivered, in arrival order.
    delivered: Vec<Vec<Vec<u32>>>,
    /// The dispatcher's pool: buffers the shards handed back.
    pool: Vec<Vec<u32>>,
}

impl Model {
    fn new(n: usize, script: &Script) -> Model {
        let (producers, lanes): (Vec<_>, Vec<_>) =
            (0..n).map(|_| spsc::<Msg>(MODEL_CAPACITY)).unzip();
        Model {
            producers,
            lanes,
            script: script.clone(),
            open: vec![true; n],
            delivered: vec![Vec::new(); n],
            pool: Vec::new(),
        }
    }

    fn n(&self) -> usize {
        self.lanes.len()
    }

    /// Can the dispatcher make a productive step right now? (Script not
    /// exhausted, and the next message's ring is below capacity —
    /// `len()` is exact here because replay is single-threaded.)
    fn dispatcher_ready(&self) -> bool {
        self.script
            .first()
            .is_some_and(|&(lane, _)| self.producers[lane].len() < MODEL_CAPACITY)
    }

    /// Can shard `s` make a productive step (its open lane has a
    /// message waiting)?
    fn shard_ready(&self, s: usize) -> bool {
        self.open[s] && !self.lanes[s].is_empty()
    }

    /// The dispatcher pushes its next scripted message. Caller checked
    /// readiness, so `try_push` must succeed — a failure here would be
    /// an SPSC capacity-accounting bug.
    fn step_dispatcher(&mut self) {
        let (lane, msg) = self.script.remove(0);
        self.producers[lane]
            .try_push(msg)
            .expect("ring below capacity must accept a push");
    }

    /// Shard `s` pops one message — exactly what `ShardWorker::run`
    /// does per loop turn that finds work.
    fn step_shard(&mut self, s: usize) {
        match self.lanes[s].try_pop() {
            Some(Msg::Batch(payload)) => {
                self.delivered[s].push(payload.clone());
                // The drained buffer goes home to the dispatcher's pool
                // (every lane's RecycleSender targets that one pool).
                self.pool.push(payload);
            }
            Some(Msg::Stop) => self.open[s] = false,
            None => unreachable!("shard stepped without a ready lane"),
        }
    }

    fn all_done(&self) -> bool {
        self.script.is_empty() && self.open.iter().all(|&o| !o)
    }
}

/// Ring capacity for every modelled lane. 1 is the most adversarial
/// legal size: every push/pop pair interleaves through a full↔empty
/// transition, the regime where head/tail accounting bugs live.
const MODEL_CAPACITY: usize = 1;

/// Actor id of the dispatcher; shards are `0..n`.
const DISPATCHER: usize = usize::MAX;

/// Replay `schedule` (a sequence of actor ids) from scratch and return
/// the resulting model.
fn replay(n: usize, script: &Script, schedule: &[usize]) -> Model {
    let mut m = Model::new(n, script);
    for &actor in schedule {
        if actor == DISPATCHER {
            m.step_dispatcher();
        } else {
            m.step_shard(actor);
        }
    }
    m
}

/// DFS over all interleavings of productive steps. Returns the number
/// of complete schedules explored.
fn explore(n: usize, script: &Script) -> usize {
    let mut schedule = Vec::new();
    let mut complete = 0usize;
    dfs(n, script, &mut schedule, &mut complete);
    complete
}

fn dfs(n: usize, script: &Script, schedule: &mut Vec<usize>, complete: &mut usize) {
    let m = replay(n, script, schedule);
    let mut candidates: Vec<usize> = (0..m.n()).filter(|&s| m.shard_ready(s)).collect();
    if m.dispatcher_ready() {
        candidates.push(DISPATCHER);
    }
    if candidates.is_empty() {
        assert!(
            m.all_done(),
            "stall: no actor can step but work remains (schedule {schedule:?}, \
             open={:?}, script left={:?})",
            m.open,
            m.script
        );
        verify_final(script, &m, schedule);
        *complete += 1;
        return;
    }
    for actor in candidates {
        schedule.push(actor);
        dfs(n, script, schedule, complete);
        schedule.pop();
    }
}

/// The invariants every complete schedule must satisfy.
fn verify_final(script: &Script, m: &Model, schedule: &[usize]) {
    for s in 0..m.n() {
        // Exactly-once + per-lane FIFO: shard `s` saw its lane's
        // batches, all of them, in push order. Stop arrived last (the
        // lane closed only after the final delivery), so shutdown
        // drained rather than discarded.
        let want: Vec<Vec<u32>> = script
            .iter()
            .filter_map(|(lane, msg)| match msg {
                Msg::Batch(p) if *lane == s => Some(p.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            m.delivered[s], want,
            "lane {s}: delivery diverged from script under schedule {schedule:?}"
        );
        assert!(!m.open[s], "lane {s}: Stop must close the lane");
        assert!(
            m.lanes[s].is_empty(),
            "lane {s}: nothing may remain queued after shutdown"
        );
    }
    // Every consumed buffer came home to the one pool, once.
    let mut pooled = m.pool.clone();
    let mut pushed: Vec<Vec<u32>> = script
        .iter()
        .filter_map(|(_, msg)| match msg {
            Msg::Batch(p) => Some(p.clone()),
            Msg::Stop => None,
        })
        .collect();
    pooled.sort();
    pushed.sort();
    assert_eq!(
        pooled, pushed,
        "every consumed buffer must return to the dispatcher's pool"
    );
}

/// Batches for each `(lane, payload)`, then one `Stop` per lane in lane
/// order — the dispatcher's end-of-stream flush.
fn script(n: usize, batches: &[(usize, &[u32])]) -> Script {
    let mut out: Script = batches
        .iter()
        .map(|&(lane, p)| (lane, Msg::Batch(p.to_vec())))
        .collect();
    out.extend((0..n).map(|lane| (lane, Msg::Stop)));
    out
}

#[test]
fn two_lane_dispatcher_row_is_exhaustively_correct() {
    // One dispatcher feeding two shards, two batches per lane plus a
    // Stop each, over capacity-1 rings: every interleaving of the
    // dispatcher's pushes with both shards' pops is explored.
    let s = script(2, &[(0, &[10, 11]), (1, &[20]), (0, &[12]), (1, &[21, 22])]);
    let complete = explore(2, &s);
    // 6 pushes + 6 pops interleave many ways; a lower bound on the
    // count guards against a silent pruning bug faking coverage.
    assert!(
        complete > 50,
        "expected a non-trivial schedule space, explored {complete}"
    );
}

#[test]
fn three_lane_dispatcher_row_drains_on_shutdown() {
    // Three shards with asymmetric traffic — one lane carries nothing
    // but its Stop, the adversarial shutdown case: every shard must
    // still drain its lane and terminate.
    let s = script(3, &[(0, &[1]), (2, &[3]), (0, &[2])]);
    let complete = explore(3, &s);
    assert!(
        complete > 50,
        "expected a non-trivial schedule space, explored {complete}"
    );
}

#[test]
fn single_lane_degenerates_to_plain_spsc() {
    // One shard: the model must reduce to an ordinary SPSC stream with
    // nothing reordered.
    let s = script(1, &[(0, &[1]), (0, &[2]), (0, &[3]), (0, &[4])]);
    let complete = explore(1, &s);
    assert!(complete > 0);
}
