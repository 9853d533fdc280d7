//! The per-rank communicator: identity, point-to-point messaging, and the
//! fault-injection transport seam.
//!
//! Every outgoing message passes through the rank's `FaultState` (built
//! from the run's [`FaultPlan`](crate::FaultPlan)), which may drop it,
//! duplicate it, hold it back behind later traffic, delay it, or kill the
//! sending rank outright (fail-stop). Receives come in two flavours: the
//! legacy blocking ones (which now abort cleanly — instead of hanging —
//! when the awaited peer dies), and timeout-aware variants returning
//! [`RecvError`] for failure-aware protocols like the task farm.

use std::any::Any;
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use crate::fault::{FaultState, PeerDeadAbort, RecvError, SendFate};
use crate::message::{ByteSized, DupMarker, Envelope, Mailbox, MatchKey, ANY_SRC};

/// Wildcard source for [`Comm::recv_any`]-style matching.
pub const ANY_SOURCE: usize = ANY_SRC;

/// A rank's handle to the cluster: identity plus communication endpoints.
///
/// One `Comm` exists per rank, owned by that rank's thread. All methods
/// take `&mut self` because receives mutate the mailbox and collectives
/// advance the internal sequence counter.
pub struct Comm {
    rank: usize,
    senders: Vec<Sender<Envelope>>,
    mailbox: Mailbox,
    /// Injected transport faults for this rank (`None` = clean transport).
    fault: Option<FaultState>,
    /// Sequence number for collectives; advances identically on every rank
    /// because MPI semantics require all ranks to call collectives in the
    /// same order.
    pub(crate) coll_seq: u64,
    /// Total messages sent by this rank (point-to-point + collective),
    /// useful for communication-cost assertions in tests and benches.
    sent_count: u64,
    /// Approximate payload bytes sent by this rank ([`ByteSized`] estimate
    /// per message). Shared-payload collectives account the *logical* value
    /// moved per edge, so clone and zero-copy paths report identical totals.
    bytes_sent: u64,
    /// Messages that could not be delivered because the destination rank
    /// was already gone (fail-stop: they vanish, like packets to a dead
    /// host).
    undeliverable: u64,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        senders: Vec<Sender<Envelope>>,
        rx: Receiver<Envelope>,
        fault: Option<FaultState>,
    ) -> Self {
        Self {
            rank,
            senders,
            mailbox: Mailbox::new(rx),
            fault,
            coll_seq: 0,
            sent_count: 0,
            bytes_sent: 0,
            undeliverable: 0,
        }
    }

    /// This rank's id in `[0, size)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Total messages this rank has sent so far.
    #[inline]
    pub fn sent_count(&self) -> u64 {
        self.sent_count
    }

    /// Approximate payload bytes this rank has sent so far (point-to-point
    /// + collectives), as estimated by [`ByteSized`].
    #[inline]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Messages swallowed because their destination rank was already dead
    /// or finished.
    #[inline]
    pub fn undeliverable_count(&self) -> u64 {
        self.undeliverable
    }

    /// Injected ghost duplicates this rank's mailbox has deduplicated.
    #[inline]
    pub fn dups_discarded(&self) -> u64 {
        self.mailbox.dups_discarded()
    }

    /// Send `value` to rank `dst` with a user `tag`. The value is moved —
    /// after sending, this rank no longer has access to it, exactly as in
    /// distributed memory.
    pub fn send<T: Send + ByteSized + 'static>(&mut self, dst: usize, tag: u32, value: T) {
        let bytes = value.approx_bytes() as u64;
        self.send_keyed(dst, MatchKey::User(tag), Box::new(value), bytes);
    }

    /// Receive a `T` from rank `src` with matching `tag`, blocking until it
    /// arrives. Panics if the arriving payload has a different type — a
    /// programming error analogous to mismatched MPI datatypes.
    ///
    /// If rank `src` dies first, this aborts the calling rank (classified
    /// as [`RankErrorKind::PeerDead`](crate::RankErrorKind::PeerDead) by
    /// the supervisor) instead of blocking forever. Failure-aware code
    /// should use [`Comm::recv_timeout`] and handle the error.
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: u32) -> T {
        let env = self.recv_envelope(src, MatchKey::User(tag), None);
        Self::downcast(env.payload, src, tag)
    }

    /// Receive a `T` with matching `tag` from *any* source; returns
    /// `(source, value)`.
    pub fn recv_any<T: Send + 'static>(&mut self, tag: u32) -> (usize, T) {
        let env = self.recv_envelope(ANY_SOURCE, MatchKey::User(tag), None);
        let src = env.src;
        (src, Self::downcast(env.payload, src, tag))
    }

    /// Non-blocking receive: `Ok(Some(value))` if a matching message has
    /// already arrived, `Ok(None)` if not, `Err(PeerDead)` if rank `src`
    /// died with nothing matching buffered.
    pub fn try_recv<T: Send + 'static>(
        &mut self,
        src: usize,
        tag: u32,
    ) -> Result<Option<T>, RecvError> {
        let got = self.mailbox.try_recv_match(src, MatchKey::User(tag))?;
        Ok(got.map(|env| Self::downcast(env.payload, src, tag)))
    }

    /// Receive with a timeout: waits at most `timeout` for a matching
    /// message, returning [`RecvError::Timeout`] if none arrives,
    /// [`RecvError::PeerDead`] if rank `src` died first.
    pub fn recv_timeout<T: Send + 'static>(
        &mut self,
        src: usize,
        tag: u32,
        timeout: Duration,
    ) -> Result<T, RecvError> {
        self.recv_deadline(src, tag, Instant::now() + timeout)
    }

    /// Like [`Comm::recv_timeout`] with an absolute deadline.
    pub fn recv_deadline<T: Send + 'static>(
        &mut self,
        src: usize,
        tag: u32,
        deadline: Instant,
    ) -> Result<T, RecvError> {
        let env = self
            .mailbox
            .recv_match_result(src, MatchKey::User(tag), Some(deadline))?;
        let src = env.src;
        Ok(Self::downcast(env.payload, src, tag))
    }

    /// Timeout-aware wildcard receive: first message with `tag` from any
    /// source within `timeout`, as `(source, value)`.
    pub fn recv_any_timeout<T: Send + 'static>(
        &mut self,
        tag: u32,
        timeout: Duration,
    ) -> Result<(usize, T), RecvError> {
        let deadline = Instant::now() + timeout;
        let env =
            self.mailbox
                .recv_match_result(ANY_SOURCE, MatchKey::User(tag), Some(deadline))?;
        let src = env.src;
        Ok((src, Self::downcast(env.payload, src, tag)))
    }

    /// Non-blocking check whether a message from `src` with `tag` has
    /// already arrived.
    pub fn probe(&mut self, src: usize, tag: u32) -> bool {
        self.mailbox.probe(src, MatchKey::User(tag))
    }

    /// Peers whose death notices this rank has seen, ascending. Absorbs
    /// any pending traffic first, so the view is current.
    pub fn dead_peers(&mut self) -> Vec<usize> {
        self.mailbox.drain_channel();
        self.mailbox.dead_peers()
    }

    /// Has `rank`'s death notice reached this rank?
    pub fn is_dead(&mut self, rank: usize) -> bool {
        self.mailbox.drain_channel();
        self.mailbox.is_dead(rank)
    }

    // ---- internals shared with the collectives module ----

    /// Route one outgoing envelope through the fault seam. The message
    /// counts as *sent* (messages and `bytes` alike) even if the plan then
    /// drops it — that is the point of drop injection. Sends to a rank
    /// that already terminated are swallowed (fail-stop: the host is gone,
    /// the packet vanishes) and tallied in [`Comm::undeliverable_count`].
    pub(crate) fn send_keyed(
        &mut self,
        dst: usize,
        key: MatchKey,
        payload: Box<dyn Any + Send>,
        bytes: u64,
    ) {
        assert!(
            dst < self.size(),
            "destination rank {dst} out of range (size {})",
            self.size()
        );
        self.sent_count += 1;
        self.bytes_sent += bytes;
        let fate = match &mut self.fault {
            Some(state) => state.on_send(dst),
            None => SendFate::default(),
        };
        if fate.drop {
            return;
        }
        if !fate.delay.is_zero() {
            std::thread::sleep(fate.delay);
        }
        let mut env = Envelope::new(self.rank, key, payload);
        env.hold_back = fate.hold_back;
        if self.senders[dst].send(env).is_err() {
            self.undeliverable += 1;
            return;
        }
        if fate.duplicate {
            // Payloads are not cloneable, so the duplicate is a ghost the
            // receiving mailbox recognises and dedups.
            let _ = self.senders[dst].send(Envelope::new(self.rank, key, Box::new(DupMarker)));
        }
    }

    pub(crate) fn recv_keyed<T: Send + 'static>(&mut self, src: usize, key: MatchKey) -> T {
        let env = self.recv_envelope(src, key, None);
        *env.payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch in collective message from rank {src}"))
    }

    /// Blocking receive used by the infallible interfaces. A dead awaited
    /// peer aborts the rank with a typed [`PeerDeadAbort`] payload that
    /// the supervisor classifies; any other failure is a plain panic.
    fn recv_envelope(&mut self, src: usize, key: MatchKey, deadline: Option<Instant>) -> Envelope {
        match self.mailbox.recv_match_result(src, key, deadline) {
            Ok(env) => env,
            Err(RecvError::PeerDead { peer }) => std::panic::panic_any(PeerDeadAbort { peer }),
            Err(e) => panic!("rank {}: receive from rank {src} failed: {e}", self.rank),
        }
    }

    fn downcast<T: 'static>(payload: Box<dyn Any + Send>, src: usize, tag: u32) -> T {
        *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch: message from rank {src} tag {tag} is not a {}",
                std::any::type_name::<T>()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    #[test]
    fn send_recv_many_types() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 17u8);
                comm.send(1, 1, vec![1.0f64, 2.0]);
                comm.send(1, 2, ("tuple", 3usize));
            } else {
                assert_eq!(comm.recv::<u8>(0, 0), 17);
                assert_eq!(comm.recv::<Vec<f64>>(0, 1), vec![1.0, 2.0]);
                assert_eq!(comm.recv::<(&str, usize)>(0, 2), ("tuple", 3));
            }
        });
    }

    #[test]
    fn recv_matches_tag_not_arrival_order() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, "first");
                comm.send(1, 20, "second");
            } else {
                // Receive in reverse tag order.
                assert_eq!(comm.recv::<&str>(0, 20), "second");
                assert_eq!(comm.recv::<&str>(0, 10), "first");
            }
        });
    }

    #[test]
    fn recv_any_reports_source() {
        Cluster::run(4, |comm| {
            if comm.rank() == 0 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..3 {
                    let (src, v) = comm.recv_any::<usize>(5);
                    assert_eq!(src, v);
                    seen.insert(src);
                }
                assert_eq!(seen.len(), 3);
            } else {
                comm.send(0, 5, comm.rank());
            }
        });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1i32);
            } else {
                let _: String = comm.recv(0, 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(9, 0, ());
            }
        });
    }

    #[test]
    fn sent_count_tracks_messages() {
        let counts = Cluster::run(3, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, ());
                comm.send(2, 0, ());
            } else {
                comm.recv::<()>(0, 0);
            }
            comm.sent_count()
        });
        assert_eq!(counts, vec![2, 0, 0]);
    }

    #[test]
    fn bytes_sent_tracks_payload_sizes() {
        let counts = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0f64, 2.0]);
                comm.send(1, 1, String::from("abc"));
            } else {
                assert_eq!(comm.recv::<Vec<f64>>(0, 0), vec![1.0, 2.0]);
                assert_eq!(comm.recv::<String>(0, 1), "abc");
            }
            comm.bytes_sent()
        });
        assert_eq!(counts, vec![16 + 3, 0]);
    }

    #[test]
    fn self_send_is_allowed() {
        Cluster::run(1, |comm| {
            comm.send(0, 3, 99u64);
            assert_eq!(comm.recv::<u64>(0, 3), 99);
        });
    }

    #[test]
    fn recv_timeout_expires_then_succeeds() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                // Wait for the go-ahead so the timeout below reliably fires.
                comm.recv::<()>(1, 1);
                comm.send(1, 0, 7i32);
            } else {
                let early = comm.recv_timeout::<i32>(0, 0, Duration::from_millis(10));
                assert_eq!(early, Err(RecvError::Timeout));
                comm.send(0, 1, ());
                let v = comm
                    .recv_timeout::<i32>(0, 0, Duration::from_secs(10))
                    .expect("message arrives after the go-ahead");
                assert_eq!(v, 7);
            }
        });
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv::<()>(1, 1);
                comm.send(1, 0, 42u64);
            } else {
                assert_eq!(comm.try_recv::<u64>(0, 0), Ok(None));
                comm.send(0, 1, ());
                loop {
                    if let Some(v) = comm.try_recv::<u64>(0, 0).expect("peer alive") {
                        assert_eq!(v, 42);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn send_to_finished_rank_is_swallowed() {
        let counts = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                // Rank 1 exits immediately; once its channel closes this
                // send becomes undeliverable and must not panic.
                loop {
                    comm.send(1, 0, ());
                    if comm.undeliverable_count() > 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            comm.undeliverable_count()
        });
        assert!(counts[0] >= 1);
    }
}
