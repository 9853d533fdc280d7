//! Message envelopes and the selective-receive mailbox.
//!
//! MPI's `MPI_Recv(source, tag)` may have to skip past messages that arrived
//! earlier but match a different `(source, tag)`. The [`Mailbox`] reproduces
//! that: unmatched envelopes are parked, **indexed by `(source, key)`**, and
//! re-examined by later receives, so message *matching* order is decoupled
//! from *arrival* order exactly as in MPI — at `O(1)` per match even under
//! heavy out-of-order traffic (the parked store is a hash map of per-key
//! FIFO queues, with a per-key arrival index serving wildcard receives).
//!
//! The mailbox is also the receiver half of the fault-tolerant transport:
//!
//! * **death notices** (`Envelope::death`) mark a source rank dead, so
//!   receives targeting it wake with [`RecvError::PeerDead`] instead of
//!   blocking forever;
//! * **ghost duplicates** (injected by a [`FaultPlan`](crate::FaultPlan))
//!   are discarded here, modelling the receiver-side dedup of a reliable
//!   transport;
//! * **held-back envelopes** (`hold_back > 0`) become matchable only after
//!   later traffic has been absorbed, modelling network reordering while
//!   guaranteeing progress (a held message is force-released whenever the
//!   channel has nothing newer to offer).

use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Instant;

use crate::fault::RecvError;

/// Message identity used for matching. User messages carry a `u32` tag;
/// collective-internal messages carry a (sequence, round) pair so that
/// consecutive collectives can never be confused with each other or with
/// user traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKey {
    /// Application-level tag.
    User(u32),
    /// Internal collective traffic: (collective sequence number, round).
    Coll {
        /// Collective sequence number (advances per collective call).
        seq: u64,
        /// Algorithm round within the collective.
        round: u32,
    },
    /// Transport control traffic (death notices). Never matched by user
    /// receives; consumed by the mailbox itself.
    Ctrl,
}

/// Payload of a ghost duplicate injected by the fault transport. The
/// mailbox discards these at absorption time (receiver-side dedup).
pub(crate) struct DupMarker;

/// A message in flight: source rank, match key, type-erased payload.
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Matching identity (user tag or collective sequence).
    pub key: MatchKey,
    /// Type-erased message body.
    pub payload: Box<dyn Any + Send>,
    /// Number of later envelopes the receiver must absorb before this one
    /// becomes matchable (reorder injection; 0 = deliver in order).
    pub(crate) hold_back: u32,
}

impl Envelope {
    /// An ordinary, in-order envelope.
    pub fn new(src: usize, key: MatchKey, payload: Box<dyn Any + Send>) -> Self {
        Self {
            src,
            key,
            payload,
            hold_back: 0,
        }
    }

    /// A death notice announcing that `rank` has failed (fail-stop).
    pub(crate) fn death(rank: usize) -> Self {
        Self::new(rank, MatchKey::Ctrl, Box::new(()))
    }
}

/// Wildcard used by [`Mailbox::recv_match`] to accept any source.
pub const ANY_SRC: usize = usize::MAX;

/// Approximate payload size in bytes, used for communication accounting.
///
/// Implementations estimate the size of the *logical* value a message
/// moves — for `Arc<T>` payloads this is the size of the shared `T`, not
/// the pointer, so the zero-copy collectives report the same byte totals
/// as their deep-cloning counterparts. The estimate is advisory: heap
/// headers, capacity slack, and enum discriminants are ignored, because
/// the counters it feeds compare communication *volume* between backends
/// and algorithms, not allocator behaviour.
pub trait ByteSized {
    /// Approximate number of bytes this value would occupy on the wire.
    fn approx_bytes(&self) -> usize;
}

macro_rules! bytesized_fixed {
    ($($t:ty),* $(,)?) => {$(
        impl ByteSized for $t {
            #[inline]
            fn approx_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

bytesized_fixed!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char,
);

impl ByteSized for () {
    #[inline]
    fn approx_bytes(&self) -> usize {
        0
    }
}

impl ByteSized for str {
    #[inline]
    fn approx_bytes(&self) -> usize {
        self.len()
    }
}

impl ByteSized for String {
    #[inline]
    fn approx_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: ByteSized + ?Sized> ByteSized for &T {
    #[inline]
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

impl<T: ByteSized + ?Sized> ByteSized for Box<T> {
    #[inline]
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

/// An `Arc` payload is sized by its shared contents: the collective moved
/// the *value* (logically), even though only a pointer hopped the edge.
impl<T: ByteSized + ?Sized> ByteSized for std::sync::Arc<T> {
    #[inline]
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

impl<T: ByteSized> ByteSized for [T] {
    fn approx_bytes(&self) -> usize {
        self.iter().map(ByteSized::approx_bytes).sum()
    }
}

impl<T: ByteSized, const N: usize> ByteSized for [T; N] {
    fn approx_bytes(&self) -> usize {
        self.as_slice().approx_bytes()
    }
}

impl<T: ByteSized> ByteSized for Vec<T> {
    fn approx_bytes(&self) -> usize {
        self.as_slice().approx_bytes()
    }
}

impl<T: ByteSized> ByteSized for Option<T> {
    fn approx_bytes(&self) -> usize {
        self.as_ref().map_or(0, ByteSized::approx_bytes)
    }
}

impl<T: ByteSized> ByteSized for std::ops::Range<T> {
    fn approx_bytes(&self) -> usize {
        self.start.approx_bytes() + self.end.approx_bytes()
    }
}

macro_rules! bytesized_tuple {
    ($($name:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($name: ByteSized),+> ByteSized for ($($name,)+) {
            fn approx_bytes(&self) -> usize {
                let ($($name,)+) = self;
                0 $(+ $name.approx_bytes())+
            }
        }
    };
}

bytesized_tuple!(A);
bytesized_tuple!(A B);
bytesized_tuple!(A B C);
bytesized_tuple!(A B C D);
bytesized_tuple!(A B C D E);
bytesized_tuple!(A B C D E F);

/// A parked envelope plus its arrival sequence number (for wildcard
/// receives, which must match in arrival order across sources).
struct Parked {
    seq: u64,
    env: Envelope,
}

/// Per-rank incoming-message store with selective receive.
pub struct Mailbox {
    rx: Receiver<Envelope>,
    /// One envelope taken off the channel to see whether it was empty; it
    /// is the next to be absorbed.
    peeked: Option<Envelope>,
    /// Parked envelopes indexed by `(src, key)`; each queue is FIFO in
    /// arrival order, so same-key streams keep MPI's ordered semantics.
    parked: HashMap<(usize, MatchKey), VecDeque<Parked>>,
    /// Arrival-ordered `(seq, src)` index per key, serving `ANY_SRC`
    /// receives in O(1) amortized (stale entries pruned lazily).
    by_key: HashMap<MatchKey, VecDeque<(u64, usize)>>,
    /// Envelopes under reorder hold-back, not yet matchable.
    delayed: VecDeque<Envelope>,
    /// Ranks known to have died.
    dead: HashSet<usize>,
    arrivals: u64,
    parked_count: usize,
    dups_discarded: u64,
}

impl Mailbox {
    /// Wrap a rank's receive channel.
    pub fn new(rx: Receiver<Envelope>) -> Self {
        Self {
            rx,
            peeked: None,
            parked: HashMap::new(),
            by_key: HashMap::new(),
            delayed: VecDeque::new(),
            dead: HashSet::new(),
            arrivals: 0,
            parked_count: 0,
            dups_discarded: 0,
        }
    }

    /// Block until a message matching `(src, key)` is available and return
    /// it. `src == ANY_SRC` matches any source. Non-matching messages are
    /// parked for later receives in arrival order.
    ///
    /// Panics if the awaited peer is dead or the cluster is tearing down —
    /// the legacy infallible interface. Failure-aware code should use
    /// [`Mailbox::recv_match_result`].
    pub fn recv_match(&mut self, src: usize, key: MatchKey) -> Envelope {
        match self.recv_match_result(src, key, None) {
            Ok(env) => env,
            Err(e) => panic!("recv_match({src}, {key:?}): {e}"),
        }
    }

    /// Like [`Mailbox::recv_match`], but failure-aware: returns
    /// [`RecvError::PeerDead`] if the awaited source died, or
    /// [`RecvError::Timeout`] once `deadline` passes (`None` = wait
    /// forever), or [`RecvError::Disconnected`] on teardown.
    pub fn recv_match_result(
        &mut self,
        src: usize,
        key: MatchKey,
        deadline: Option<Instant>,
    ) -> Result<Envelope, RecvError> {
        loop {
            if let Some(env) = self.take_parked(src, key) {
                return Ok(env);
            }
            // Drain whatever has already arrived without blocking.
            match self.try_next() {
                Ok(env) => {
                    self.absorb(env);
                    continue;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    if let Some(env) = self.release_one_delayed() {
                        self.absorb_released(env);
                        continue;
                    }
                    return Err(RecvError::Disconnected);
                }
            }
            // Channel momentarily empty: release held-back traffic before
            // blocking, so reorder injection can never cause a hang.
            if let Some(env) = self.release_one_delayed() {
                self.absorb_released(env);
                continue;
            }
            if src != ANY_SRC && self.dead.contains(&src) {
                return Err(RecvError::PeerDead { peer: src });
            }
            let env = match deadline {
                None => self.rx.recv().map_err(|_| RecvError::Disconnected)?,
                Some(d) => match self
                    .rx
                    .recv_timeout(d.saturating_duration_since(Instant::now()))
                {
                    Ok(env) => env,
                    Err(RecvTimeoutError::Timeout) => return Err(RecvError::Timeout),
                    Err(RecvTimeoutError::Disconnected) => return Err(RecvError::Disconnected),
                },
            };
            self.absorb(env);
        }
    }

    /// Non-blocking receive: `Ok(Some)` if a matching message is already
    /// available, `Ok(None)` if not, `Err(PeerDead)` if the awaited source
    /// is dead with nothing buffered from it.
    pub fn try_recv_match(
        &mut self,
        src: usize,
        key: MatchKey,
    ) -> Result<Option<Envelope>, RecvError> {
        self.drain_channel();
        if let Some(env) = self.take_parked(src, key) {
            return Ok(Some(env));
        }
        if src != ANY_SRC && self.dead.contains(&src) {
            return Err(RecvError::PeerDead { peer: src });
        }
        Ok(None)
    }

    /// Non-blocking probe: is a matching message already available?
    pub fn probe(&mut self, src: usize, key: MatchKey) -> bool {
        self.drain_channel();
        if src == ANY_SRC {
            return self.peek_any(key);
        }
        self.parked.get(&(src, key)).is_some_and(|q| !q.is_empty())
    }

    /// Number of parked (arrived but unmatched) messages, including
    /// held-back ones.
    pub fn parked_len(&self) -> usize {
        self.parked_count + self.delayed.len()
    }

    /// Ghost duplicates discarded by receiver-side dedup so far.
    pub fn dups_discarded(&self) -> u64 {
        self.dups_discarded
    }

    /// Ranks this mailbox has seen death notices for, ascending.
    pub fn dead_peers(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.dead.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Has `rank`'s death notice arrived?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.contains(&rank)
    }

    // ---- internals ----

    /// Pull everything already queued on the channel into the parked
    /// store (releasing hold-backs as traffic flows past them).
    pub(crate) fn drain_channel(&mut self) {
        while let Ok(env) = self.try_next() {
            self.absorb(env);
        }
        while let Some(env) = self.release_one_delayed() {
            self.absorb_released(env);
            // Only force-release while nothing newer is pending.
            if !self.channel_is_empty() {
                break;
            }
        }
    }

    /// The next envelope already on the channel, the peeked one first.
    fn try_next(&mut self) -> Result<Envelope, TryRecvError> {
        match self.peeked.take() {
            Some(env) => Ok(env),
            None => self.rx.try_recv(),
        }
    }

    /// Is nothing waiting on the channel? An envelope taken off it to find
    /// out stays in the peek slot.
    fn channel_is_empty(&mut self) -> bool {
        if self.peeked.is_none() {
            self.peeked = self.rx.try_recv().ok();
        }
        self.peeked.is_none()
    }

    /// Classify one incoming envelope: control traffic updates the dead
    /// set, ghost duplicates are dropped, held-back envelopes are staged,
    /// everything else parks. Absorbing real traffic ages the hold-backs.
    fn absorb(&mut self, env: Envelope) {
        if env.key == MatchKey::Ctrl {
            self.dead.insert(env.src);
            return;
        }
        if env.payload.is::<DupMarker>() {
            self.dups_discarded += 1;
            return;
        }
        for d in &mut self.delayed {
            d.hold_back = d.hold_back.saturating_sub(1);
        }
        if env.hold_back > 0 {
            self.delayed.push_back(env);
            self.flush_ripe_delayed();
            return;
        }
        self.park(env);
        self.flush_ripe_delayed();
    }

    /// Park an envelope released from the hold-back stage (must not age
    /// the remaining held traffic again).
    fn absorb_released(&mut self, env: Envelope) {
        self.park(env);
    }

    fn park(&mut self, mut env: Envelope) {
        env.hold_back = 0;
        let seq = self.arrivals;
        self.arrivals += 1;
        self.by_key
            .entry(env.key)
            .or_default()
            .push_back((seq, env.src));
        self.parked
            .entry((env.src, env.key))
            .or_default()
            .push_back(Parked { seq, env });
        self.parked_count += 1;
    }

    /// Move every fully-aged held envelope into the parked store.
    fn flush_ripe_delayed(&mut self) {
        while let Some(pos) = self.delayed.iter().position(|d| d.hold_back == 0) {
            let env = self.delayed.remove(pos).expect("position just found");
            self.park(env);
        }
    }

    /// Force-release the oldest held envelope (progress guarantee).
    fn release_one_delayed(&mut self) -> Option<Envelope> {
        self.delayed.pop_front()
    }

    fn take_parked(&mut self, src: usize, key: MatchKey) -> Option<Envelope> {
        if src == ANY_SRC {
            return self.take_any(key);
        }
        let q = self.parked.get_mut(&(src, key))?;
        let p = q.pop_front()?;
        if q.is_empty() {
            self.parked.remove(&(src, key));
        }
        self.parked_count -= 1;
        Some(p.env)
    }

    /// Oldest parked envelope with `key` from any source, via the per-key
    /// arrival index. Entries whose envelope was already taken by a
    /// source-specific receive are stale and skipped (lazy pruning).
    fn take_any(&mut self, key: MatchKey) -> Option<Envelope> {
        loop {
            let (seq, src) = match self.by_key.get_mut(&key) {
                None => return None,
                Some(index) => match index.pop_front() {
                    None => {
                        self.by_key.remove(&key);
                        return None;
                    }
                    Some(entry) => entry,
                },
            };
            let Some(q) = self.parked.get_mut(&(src, key)) else {
                continue; // stale: queue fully consumed
            };
            // The queue head is newer than this index entry exactly when a
            // source-specific receive already consumed the envelope — then
            // the entry is stale and skipped.
            if !matches!(q.front(), Some(p) if p.seq == seq) {
                continue;
            }
            let p = q.pop_front().expect("front just checked");
            if q.is_empty() {
                self.parked.remove(&(src, key));
            }
            if self.by_key.get(&key).is_some_and(|i| i.is_empty()) {
                self.by_key.remove(&key);
            }
            self.parked_count -= 1;
            return Some(p.env);
        }
    }

    fn peek_any(&self, key: MatchKey) -> bool {
        self.parked
            .iter()
            .any(|((_, k), q)| *k == key && !q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn env(src: usize, tag: u32, v: i32) -> Envelope {
        Envelope::new(src, MatchKey::User(tag), Box::new(v))
    }

    #[test]
    fn out_of_order_matching() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(1, 10, 100)).unwrap();
        tx.send(env(2, 20, 200)).unwrap();
        // Ask for the second-arrived first.
        let got = mb.recv_match(2, MatchKey::User(20));
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 200);
        assert_eq!(mb.parked_len(), 1);
        let got = mb.recv_match(1, MatchKey::User(10));
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 100);
        assert_eq!(mb.parked_len(), 0);
    }

    #[test]
    fn any_source_matches_first_arrival() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(5, 1, 55)).unwrap();
        let got = mb.recv_match(ANY_SRC, MatchKey::User(1));
        assert_eq!(got.src, 5);
    }

    #[test]
    fn any_source_arrival_order_across_sources() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(3, 1, 30)).unwrap();
        tx.send(env(1, 1, 10)).unwrap();
        tx.send(env(2, 1, 20)).unwrap();
        let order: Vec<usize> = (0..3)
            .map(|_| mb.recv_match(ANY_SRC, MatchKey::User(1)).src)
            .collect();
        assert_eq!(order, vec![3, 1, 2], "wildcard receives in arrival order");
    }

    #[test]
    fn any_source_skips_stale_index_entries() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(1, 7, 11)).unwrap();
        tx.send(env(2, 7, 22)).unwrap();
        // A source-specific receive consumes rank 1's envelope, leaving a
        // stale entry at the head of the key index.
        let got = mb.recv_match(1, MatchKey::User(7));
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 11);
        let got = mb.recv_match(ANY_SRC, MatchKey::User(7));
        assert_eq!(got.src, 2);
        assert_eq!(mb.parked_len(), 0);
    }

    #[test]
    fn fifo_between_matching_messages() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(1, 9, 1)).unwrap();
        tx.send(env(1, 9, 2)).unwrap();
        let a = mb.recv_match(1, MatchKey::User(9));
        let b = mb.recv_match(1, MatchKey::User(9));
        assert_eq!(*a.payload.downcast::<i32>().unwrap(), 1);
        assert_eq!(*b.payload.downcast::<i32>().unwrap(), 2);
    }

    #[test]
    fn coll_keys_do_not_match_user_keys() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(Envelope::new(
            0,
            MatchKey::Coll { seq: 3, round: 0 },
            Box::new(7i32),
        ))
        .unwrap();
        tx.send(env(0, 3, 8)).unwrap();
        // User tag 3 must not match Coll seq 3.
        let got = mb.recv_match(0, MatchKey::User(3));
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 8);
        let got = mb.recv_match(0, MatchKey::Coll { seq: 3, round: 0 });
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 7);
    }

    #[test]
    fn probe_sees_arrived_message() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        assert!(!mb.probe(1, MatchKey::User(4)));
        tx.send(env(1, 4, 0)).unwrap();
        assert!(mb.probe(1, MatchKey::User(4)));
        // Probe must not consume.
        assert!(mb.probe(1, MatchKey::User(4)));
        mb.recv_match(1, MatchKey::User(4));
        assert!(!mb.probe(1, MatchKey::User(4)));
    }

    #[test]
    fn death_notice_wakes_pending_receive() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(Envelope::death(3)).unwrap();
        let err = mb
            .recv_match_result(3, MatchKey::User(0), None)
            .err()
            .expect("peer is dead");
        assert_eq!(err, RecvError::PeerDead { peer: 3 });
        assert!(mb.is_dead(3));
        assert_eq!(mb.dead_peers(), vec![3]);
    }

    #[test]
    fn buffered_message_from_dead_peer_still_delivered() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(2, 5, 42)).unwrap();
        tx.send(Envelope::death(2)).unwrap();
        // The in-flight message outruns the death notice: deliver it.
        let got = mb
            .recv_match_result(2, MatchKey::User(5), None)
            .expect("message was buffered");
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 42);
        // Nothing more from rank 2: now the death surfaces.
        let err = mb.recv_match_result(2, MatchKey::User(5), None).err();
        assert_eq!(err, Some(RecvError::PeerDead { peer: 2 }));
    }

    #[test]
    fn timeout_when_nothing_arrives() {
        let (_tx, rx) = channel::<Envelope>();
        let mut mb = Mailbox::new(rx);
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = mb
            .recv_match_result(0, MatchKey::User(1), Some(deadline))
            .err();
        assert_eq!(err, Some(RecvError::Timeout));
    }

    #[test]
    fn disconnected_when_all_senders_gone() {
        let (tx, rx) = channel::<Envelope>();
        let mut mb = Mailbox::new(rx);
        drop(tx);
        let err = mb.recv_match_result(0, MatchKey::User(1), None).err();
        assert_eq!(err, Some(RecvError::Disconnected));
    }

    #[test]
    fn try_recv_match_nonblocking() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        assert_eq!(
            mb.try_recv_match(1, MatchKey::User(2)).map(|o| o.is_some()),
            Ok(false)
        );
        tx.send(env(1, 2, 9)).unwrap();
        let got = mb.try_recv_match(1, MatchKey::User(2)).unwrap().unwrap();
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 9);
    }

    #[test]
    fn ghost_duplicates_are_discarded() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        tx.send(env(0, 1, 5)).unwrap();
        tx.send(Envelope::new(0, MatchKey::User(1), Box::new(DupMarker)))
            .unwrap();
        let got = mb.recv_match(0, MatchKey::User(1));
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 5);
        assert!(!mb.probe(0, MatchKey::User(1)), "ghost must not match");
        assert_eq!(mb.dups_discarded(), 1);
    }

    #[test]
    fn held_back_envelope_reorders_but_arrives() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        let mut held = env(1, 9, 1);
        held.hold_back = 1;
        tx.send(held).unwrap();
        tx.send(env(1, 9, 2)).unwrap();
        // Same (src, key) stream: the held first message is overtaken.
        let a = mb.recv_match(1, MatchKey::User(9));
        let b = mb.recv_match(1, MatchKey::User(9));
        assert_eq!(*a.payload.downcast::<i32>().unwrap(), 2, "overtaken");
        assert_eq!(*b.payload.downcast::<i32>().unwrap(), 1, "still delivered");
    }

    #[test]
    fn approx_bytes_of_common_payloads() {
        assert_eq!(3u8.approx_bytes(), 1);
        assert_eq!(1.5f64.approx_bytes(), 8);
        assert_eq!(().approx_bytes(), 0);
        assert_eq!("hello".approx_bytes(), 5);
        assert_eq!(
            String::from("hé").approx_bytes(),
            3,
            "UTF-8 bytes, not chars"
        );
        assert_eq!(vec![1.0f64; 4].approx_bytes(), 32);
        assert_eq!(vec![vec![1u32; 3]; 2].approx_bytes(), 24, "nested sums");
        assert_eq!(("tag", 7usize).approx_bytes(), 3 + 8);
        assert_eq!(Some(5u16).approx_bytes(), 2);
        assert_eq!(None::<u16>.approx_bytes(), 0);
        assert_eq!([1u64, 2, 3].approx_bytes(), 24);
    }

    #[test]
    fn arc_payload_sized_by_contents() {
        // Zero-copy payloads must account the logical value they share, so
        // shared and clone collectives report identical byte totals.
        let v = vec![0u8; 100];
        assert_eq!(std::sync::Arc::new(v.clone()).approx_bytes(), 100);
        assert_eq!(Box::new(v).approx_bytes(), 100);
    }

    #[test]
    fn held_back_envelope_released_when_channel_idle() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new(rx);
        let mut held = env(0, 3, 77);
        held.hold_back = 5;
        tx.send(held).unwrap();
        // No later traffic ever arrives; the hold-back must not hang.
        let got = mb.recv_match(0, MatchKey::User(3));
        assert_eq!(*got.payload.downcast::<i32>().unwrap(), 77);
    }
}
