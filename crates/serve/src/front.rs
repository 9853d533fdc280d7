//! The front end both servers drive: bounded admission, one per-shard
//! virtual-time batcher, replay of batches lost to a kill, and
//! `run_trace`. The fixed pool is its one-shard case.
//!
//! Everything here runs on the virtual clock, so which requests share a
//! batch, when each batch closes and why, and when a lost batch replays
//! are a pure function of `(trace, config)`. What a tier does with a due
//! batch — hand it to worker threads, or run it in a synchronous SPMD
//! round — is its [`Backend`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use peachy_cluster::{FaultPlan, TickBackoff};

use crate::server::{BatchRecord, Response, ServeError, Slot};
use crate::stats::{CloseCause, ServerStats};

/// One admitted request: `(arrival tick, input, response slot)`.
type Queued<I, O> = (u64, I, Arc<Slot<O>>);

/// A closed batch; every input routes to `shard`. `slots[i]` is where
/// `inputs[i]`'s answer lands.
pub(crate) struct Batch<I, O> {
    pub(crate) id: u64,
    pub(crate) shard: usize,
    /// Replays so far.
    attempt: u32,
    /// Earliest tick the batch may be dispatched (replay backoff gate).
    not_before: u64,
    pub(crate) inputs: Vec<I>,
    slots: Vec<Arc<Slot<O>>>,
}

impl<I, O> Batch<I, O> {
    /// Answer every request in order from `outputs`, or every request
    /// [`ServeError::Failed`] when the service panicked (`None`) or did
    /// not answer each request once. Returns whether the batch was
    /// answered. Both tiers settle a served batch here, after one attempt.
    pub(crate) fn answer(&self, outputs: Option<Vec<O>>, stats: &ServerStats) -> bool {
        match outputs {
            Some(outputs) if outputs.len() == self.slots.len() => {
                for (slot, out) in self.slots.iter().zip(outputs) {
                    slot.fill(Ok(out));
                }
                stats.record_completed(self.slots.len() as u64);
                true
            }
            _ => {
                for slot in &self.slots {
                    slot.fill(Err(ServeError::Failed));
                }
                stats.record_failed(self.slots.len() as u64);
                false
            }
        }
    }
}

/// The batcher shape both tiers share: capacity, batch size and wait must
/// each be at least 1.
pub(crate) fn check_batching(
    capacity: usize,
    max_batch_size: usize,
    max_wait: u64,
) -> Result<(), String> {
    match (capacity, max_batch_size, max_wait) {
        (0, _, _) => Err("capacity must be at least 1".to_string()),
        (_, 0, _) => Err("max_batch_size must be at least 1".to_string()),
        (_, _, 0) => Err("max_wait must be at least 1 tick".to_string()),
        _ => Ok(()),
    }
}

/// Admission, batching and replay state, all driven by the virtual clock.
pub(crate) struct Batcher<I, O> {
    pub(crate) clock: u64,
    capacity: usize,
    max_batch_size: usize,
    max_wait: u64,
    pub(crate) stats: Arc<ServerStats>,
    next_req_id: u64,
    next_batch_id: u64,
    /// Admitted, not yet seen by the batcher (drained on tick boundaries).
    ingress: VecDeque<Queued<I, O>>,
    /// Drained requests per shard, waiting to fill a batch.
    pending: Vec<VecDeque<Queued<I, O>>>,
    /// Closed batches awaiting dispatch (a replay's backoff may gate them).
    ready: Vec<Batch<I, O>>,
    /// Every closed batch, in close order (replays do not re-log).
    pub(crate) batch_log: Vec<BatchRecord>,
}

impl<I, O> Batcher<I, O> {
    /// A batcher of the shape [`check_batching`] accepts.
    pub(crate) fn new(
        shards: usize,
        capacity: usize,
        max_batch_size: usize,
        max_wait: u64,
    ) -> Self {
        Self {
            clock: 0,
            capacity,
            max_batch_size,
            max_wait,
            stats: ServerStats::new(max_batch_size),
            next_req_id: 0,
            next_batch_id: 0,
            ingress: VecDeque::new(),
            pending: (0..shards).map(|_| VecDeque::new()).collect(),
            ready: Vec::new(),
            batch_log: Vec::new(),
        }
    }

    /// Admit one request at the current tick, or reject it with
    /// [`ServeError::Overloaded`] when the ingress queue is at capacity.
    pub(crate) fn submit(&mut self, input: I) -> Result<Response<O>, ServeError> {
        if self.ingress.len() >= self.capacity {
            self.stats.record_reject();
            return Err(ServeError::Overloaded);
        }
        let id = self.next_req_id;
        self.next_req_id += 1;
        let slot = Slot::new();
        self.ingress
            .push_back((self.clock, input, Arc::clone(&slot)));
        self.stats.record_submit(self.depth());
        Ok(Response { id, slot })
    }

    /// Admitted requests not yet dispatched.
    fn depth(&self) -> u64 {
        let pending: usize = self.pending.iter().map(VecDeque::len).sum();
        let ready: usize = self.ready.iter().map(|b| b.inputs.len()).sum();
        (self.ingress.len() + pending + ready) as u64
    }

    /// Drain the ingress queue into per-shard queues, then close batches
    /// shard by shard (ascending) while [`Batcher::close_cause`] says so.
    fn close(&mut self, shard_of: impl Fn(&I) -> usize, flush: bool) {
        for req in self.ingress.drain(..) {
            self.pending[shard_of(&req.1)].push_back(req);
        }
        for shard in 0..self.pending.len() {
            while let Some(cause) = self.close_cause(shard, flush) {
                self.close_batch(shard, cause);
            }
        }
    }

    /// The close rule: a full queue closes by `Size`, one whose oldest
    /// request has waited `max_wait` ticks by `Timeout`, and on `flush`
    /// whatever is left by `Flush`.
    fn close_cause(&self, shard: usize, flush: bool) -> Option<CloseCause> {
        let q = &self.pending[shard];
        let &(oldest, ..) = q.front()?;
        if q.len() >= self.max_batch_size {
            Some(CloseCause::Size)
        } else if flush {
            Some(CloseCause::Flush)
        } else if self.clock - oldest >= self.max_wait {
            Some(CloseCause::Timeout)
        } else {
            None
        }
    }

    /// Close one batch off the front of `shard`'s queue. Latency is
    /// accounted here — close tick minus arrival tick, the deterministic
    /// queueing and batching delay.
    fn close_batch(&mut self, shard: usize, cause: CloseCause) {
        let q = &mut self.pending[shard];
        let take = q.len().min(self.max_batch_size);
        let mut inputs = Vec::with_capacity(take);
        let mut slots = Vec::with_capacity(take);
        for (arrival, input, slot) in q.drain(..take) {
            self.stats.record_latency(self.clock - arrival);
            inputs.push(input);
            slots.push(slot);
        }
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        self.stats.record_batch(take, cause);
        self.batch_log.push(BatchRecord {
            id,
            close_tick: self.clock,
            size: take,
            cause,
        });
        self.ready.push(Batch {
            id,
            shard,
            attempt: 0,
            not_before: 0,
            inputs,
            slots,
        });
    }

    /// Take the ready batches whose backoff has elapsed, in id order.
    fn take_due(&mut self) -> Vec<Batch<I, O>> {
        let mut due = Vec::new();
        if self.ready.is_empty() {
            return due;
        }
        let mut i = 0;
        while i < self.ready.len() {
            if self.ready[i].not_before <= self.clock {
                due.push(self.ready.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|b| b.id);
        due
    }

    /// Re-queue a batch lost to a kill. It becomes due `backoff` ticks
    /// after the next boundary, and its requests count as replayed.
    pub(crate) fn replay(&mut self, mut batch: Batch<I, O>, backoff: &TickBackoff) {
        batch.attempt += 1;
        let delay = backoff.delay_ticks(batch.attempt);
        self.stats.record_backoff(delay);
        self.stats.record_replayed(batch.inputs.len() as u64);
        batch.not_before = self.clock.saturating_add(1).saturating_add(delay);
        self.ready.push(batch);
    }

    /// The earliest tick a ready batch may be dispatched.
    fn next_due(&self) -> Option<u64> {
        self.ready.iter().map(|b| b.not_before).min()
    }
}

/// [`FaultPlan`] kills counted in batches dispatched to each rank: a
/// rank's kill fires once, on the dispatch that crosses its threshold.
/// The count depends only on dispatch order, never on thread scheduling.
pub(crate) struct KillCounter {
    /// Kills not yet fired: rank → dispatches it still survives.
    armed: BTreeMap<usize, u64>,
}

impl KillCounter {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        Self {
            armed: plan.scheduled_kills().into_iter().collect(),
        }
    }

    /// Count one batch dispatched to `rank`; true if this dispatch kills it.
    pub(crate) fn dispatch(&mut self, rank: usize) -> bool {
        let Some(left) = self.armed.get_mut(&rank) else {
            return false;
        };
        if *left > 0 {
            *left -= 1;
            return false;
        }
        self.armed.remove(&rank);
        true
    }
}

/// How a tier executes due batches.
pub(crate) trait Backend {
    type Input;
    type Output;

    /// The shard `input` batches in. The pool serves one shard.
    fn shard_of(&self, input: &Self::Input) -> usize;

    /// Apply the membership changes due at `tick`.
    fn on_tick(&mut self, _tick: u64) {}

    /// The earliest tick at which [`Backend::on_tick`] has scripted work
    /// left, if any. The pool scripts none.
    fn next_tick(&self) -> Option<u64> {
        None
    }

    /// Dispatch one round of due batches. A batch lost to a kill goes
    /// back through [`Batcher::replay`].
    fn run(
        &mut self,
        due: Vec<Batch<Self::Input, Self::Output>>,
        q: &mut Batcher<Self::Input, Self::Output>,
    );
}

/// One batcher in front of one backend.
pub(crate) struct Front<B: Backend> {
    pub(crate) q: Batcher<B::Input, B::Output>,
    pub(crate) back: B,
}

impl<B: Backend> Front<B> {
    /// Advance the virtual clock by `ticks`, running the boundary pipeline
    /// at each: membership changes → ingress drain → batch closes → one
    /// round of every due batch.
    pub(crate) fn advance(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.q.clock += 1;
            self.back.on_tick(self.q.clock);
            self.close(false);
            let due = self.q.take_due();
            if !due.is_empty() {
                self.back.run(due, &mut self.q);
            }
            self.q.stats.record_depth(self.q.depth());
        }
    }

    /// Close everything pending and dispatch it, letting virtual time pass
    /// while replays wait out their backoff, until nothing is left
    /// undispatched. While nothing is due the clock jumps to the next tick
    /// at which a replay comes due or the backend has scripted work, so
    /// [`Backend::on_tick`] still runs at every scripted tick, in order,
    /// and a long backoff costs no more than a short one.
    pub(crate) fn flush(&mut self) {
        self.close(true);
        while let Some(due_at) = self.q.next_due() {
            let due = self.q.take_due();
            if due.is_empty() {
                let next = self.back.next_tick().map_or(due_at, |t| t.min(due_at));
                self.q.clock = next.max(self.q.clock + 1);
                self.back.on_tick(self.q.clock);
                continue;
            }
            self.back.run(due, &mut self.q);
        }
        self.q.stats.record_depth(0);
    }

    fn close(&mut self, flush: bool) {
        let back = &self.back;
        self.q.close(|input| back.shard_of(input), flush);
    }

    /// Drive a whole seeded trace: submit each `(tick, input)` at its tick
    /// (advancing the clock as needed), flush at the end, and block for
    /// every answer. The result vector aligns with the trace; rejected
    /// submissions yield `Err(Overloaded)` in place.
    ///
    /// Arrival ticks must be nondecreasing — the trace *is* the arrival
    /// order, which is exactly what makes the run reproducible.
    pub(crate) fn run_trace(
        &mut self,
        trace: impl IntoIterator<Item = (u64, B::Input)>,
    ) -> Vec<Result<B::Output, ServeError>> {
        let mut handles = Vec::new();
        let mut last_tick = 0;
        for (tick, input) in trace {
            assert!(tick >= last_tick, "arrival ticks must be nondecreasing");
            last_tick = tick;
            if tick > self.q.clock {
                self.advance(tick - self.q.clock);
            }
            handles.push(self.q.submit(input));
        }
        self.flush();
        handles
            .into_iter()
            .map(|h| h.and_then(Response::wait))
            .collect()
    }
}
