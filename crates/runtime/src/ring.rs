//! Bounded SPSC burst rings between the dispatch plane and the worker shards.
//!
//! Each shard is fed through single-producer/single-consumer rings of
//! *bursts* (not individual packets), mirroring how a DPDK dispatcher hands
//! `rte_ring` entries of mbuf bursts to worker lcores: the ring is bounded so
//! a slow shard exerts backpressure on the dispatcher instead of letting the
//! queue grow without limit, and handing over whole bursts amortises the
//! synchronisation cost over [`menshen_core::BURST_SIZE`] packets.
//!
//! # Design
//!
//! The ring is a fixed slot array indexed by two monotonically increasing
//! positions — `tail` (producer) and `head` (consumer) — each on its own
//! cache line (`CachePadded`) so the producer's store never invalidates the
//! consumer's line. Both sides keep a *cached* copy of the opposite index:
//! the common push/pop only touches its own index plus the slot, and reloads
//! the opposite index (one shared-line read) only when the cached value says
//! the ring looks full/empty. Occupancy telemetry ([`Producer::len`],
//! [`Consumer::occupancy`], the depth high-watermark) reads the indices with
//! relaxed atomics — no lock is ever taken to observe the ring.
//!
//! Blocking operations use a **spin-then-park** wait strategy: a short
//! `spin_loop` phase covers the common case where the opposite side is
//! actively working, then the waiter parks on a [`Parker`] so an idle shard
//! costs zero CPU. The flag/recheck protocol in [`Parker`] (all
//! `SeqCst`) makes the wakeup race-free: a producer that publishes an item
//! and then sees no waiter is *guaranteed* the consumer will observe the item
//! before deciding to park, and vice versa. A shard consuming several rings
//! (one per dispatcher) shares one parker across all of them, so any producer
//! can wake it.
//!
//! # Slot storage: the one place this crate uses `unsafe`
//!
//! The slots are one `UnsafeCell<MaybeUninit<T>>` each, the classic
//! lock-free SPSC layout (the private `slots` module). A safe store — one
//! `Mutex<Option<T>>` per slot, every acquisition uncontended under the SPSC
//! protocol — would also be correct. On the repository's benchmark
//! (`sharded_rss` `throughput_mpps`, two threaded shards) one set of ten
//! paired runs had it 4 % slower and a replication left the difference
//! unresolved (1 %, inside the run-to-run spread); neither store regressed
//! a gated metric. Two interchangeable stores behind a switch are two
//! configurations to test, so there is one. The crate is
//! `#![deny(unsafe_code)]` with a single `#[allow(unsafe_code)]` on that
//! module: its two `unsafe` blocks rely on exactly the invariant the index
//! protocol above provides (the producer writes only vacated slots, the
//! consumer reads only published ones, the acquire/release index handoff
//! orders the two), and the type is private to this file so no code outside
//! the protocol can reach a slot.

use menshen_core::Gauge;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Iterations of the spin phase before a blocked side parks. Long enough to
/// ride out the opposite side finishing one burst, short enough that an idle
/// shard reaches the parked (zero-CPU) state in well under a microsecond.
const SPIN_LIMIT: u32 = 128;

/// Error returned when pushing into a ring whose consumer is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingClosed;

impl std::fmt::Display for RingClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring closed: the consumer side has shut down")
    }
}

impl std::error::Error for RingClosed {}

/// Why a deadline-bounded push was rejected. The value rides along so the
/// caller can account for it (shed it, retry it, or count it as lost)
/// instead of silently dropping it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The consumer side has shut down; the ring will never drain.
    Closed(T),
    /// The ring stayed full past the deadline — the consumer is alive (or
    /// wedged) but not keeping up. The caller should shed the value rather
    /// than park forever.
    Timeout(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected value.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Closed(value) | PushError::Timeout(value) => value,
        }
    }

    /// True when the rejection was a deadline expiry, not a closed ring.
    pub fn is_timeout(&self) -> bool {
        matches!(self, PushError::Timeout(_))
    }
}

/// Pads (and aligns) a value to a cache line so the producer's and
/// consumer's hot indices never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// A park/unpark rendezvous with a race-free flag protocol.
///
/// Waiter: take the lock, raise `waiting` (`SeqCst`), issue a `SeqCst`
/// fence, re-check the readiness condition, and only then block on the
/// condvar. Waker: publish the state change (`SeqCst` store), then check
/// `waiting` (`SeqCst` load) — if raised, take the lock and notify. The
/// fence is what makes the Dekker argument hold for *any* readiness
/// predicate, whatever orderings its own loads use: if the waker's flag
/// load missed the raised flag, that load precedes the flag store in the
/// single total order of `SeqCst` operations, so the waker's earlier state
/// publication precedes the waiter's fence — and a load sequenced after a
/// `SeqCst` fence must observe every `SeqCst` store that precedes the fence
/// in that order. If instead the waker saw the flag, the lock serialises it
/// behind the waiter's re-check, so the notify cannot be lost.
///
/// One parker can serve a consumer draining several rings (the shard's
/// per-dispatcher inputs): every producer wakes the same parker.
#[derive(Debug, Default)]
pub struct Parker {
    lock: Mutex<()>,
    cv: Condvar,
    waiting: AtomicBool,
}

impl Parker {
    /// Creates a parker.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Blocks until `ready()` returns true. `ready` is evaluated under the
    /// parker's lock with the `waiting` flag raised, so any waker that
    /// changes the condition and then calls [`unpark`](Parker::unpark)
    /// cannot be missed.
    pub fn park_until(&self, mut ready: impl FnMut() -> bool) {
        let mut guard = self.lock.lock().expect("parker lock poisoned");
        self.waiting.store(true, Ordering::SeqCst);
        // Close the Dekker race against a waker that published state and
        // then missed the flag: after this fence, the first `ready()`
        // evaluation observes every SeqCst store that preceded the waker's
        // flag load — regardless of the orderings `ready` itself uses (the
        // predicates read indices with Acquire/Relaxed).
        std::sync::atomic::fence(Ordering::SeqCst);
        while !ready() {
            guard = self.cv.wait(guard).expect("parker lock poisoned");
        }
        self.waiting.store(false, Ordering::SeqCst);
        drop(guard);
    }

    /// Like [`park_until`](Parker::park_until), but gives up at `deadline`.
    /// Returns `true` if the condition became true, `false` on expiry. The
    /// flag protocol is identical, so wakeups cannot be lost; the deadline
    /// only bounds how long the waiter stays blocked when *nothing* wakes it
    /// — the foundation for bounded-wait submission (graceful shedding
    /// instead of parking forever on a wedged consumer).
    pub fn park_deadline_until(&self, mut ready: impl FnMut() -> bool, deadline: Instant) -> bool {
        let mut guard = self.lock.lock().expect("parker lock poisoned");
        self.waiting.store(true, Ordering::SeqCst);
        // Same Dekker fence as `park_until`; see that method.
        std::sync::atomic::fence(Ordering::SeqCst);
        let mut became_ready = true;
        while !ready() {
            let now = Instant::now();
            if now >= deadline {
                became_ready = false;
                break;
            }
            let (reacquired, _timed_out) = self
                .cv
                .wait_timeout(guard, deadline - now)
                .expect("parker lock poisoned");
            guard = reacquired;
        }
        self.waiting.store(false, Ordering::SeqCst);
        drop(guard);
        became_ready
    }

    /// Wakes a parked waiter, if any. Cheap when nobody waits: one `SeqCst`
    /// load. The caller must have already published (with `SeqCst` stores)
    /// whatever state change makes the waiter's condition true.
    pub fn unpark(&self) {
        if self.waiting.load(Ordering::SeqCst) {
            let _guard = self.lock.lock().expect("parker lock poisoned");
            self.cv.notify_all();
        }
    }
}

/// Slot storage for one ring: a fixed array of bare
/// `UnsafeCell<MaybeUninit<T>>` cells transferring values from the producer
/// to the consumer.
///
/// # Contract
///
/// `write(i, v)` may be called only when slot `i` is vacant and owned by the
/// producer, and `take(i)` only when slot `i` was published and is owned by
/// the consumer; the ring's head/tail acquire/release handoff orders the
/// two. The methods are safe `fn`s so that the rest of the crate stays free
/// of `unsafe` blocks; in exchange [`Slots`] is visible to this file only,
/// where every caller ([`Producer::commit`], [`Consumer::consume`] and
/// [`RingInner`]'s `Drop`) sits behind the index protocol.
#[allow(unsafe_code)]
mod slots {
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;

    /// Lock-free slot storage. See the module docs for the safety argument.
    #[derive(Debug)]
    pub(super) struct Slots<T> {
        slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    }

    // SAFETY: the contract guarantees each slot is accessed by at most one
    // thread at a time, with the handoff between threads ordered by the
    // ring's acquire/release index protocol; the values themselves cross
    // threads, hence `T: Send`.
    unsafe impl<T: Send> Sync for Slots<T> {}

    impl<T> Slots<T> {
        /// Allocates `capacity` vacant slots.
        pub(super) fn with_capacity(capacity: usize) -> Self {
            Slots {
                slots: (0..capacity)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
            }
        }

        /// Stores `value` into vacant slot `index`.
        pub(super) fn write(&self, index: usize, value: T) {
            // SAFETY: the contract gives the producer exclusive access to
            // this vacant slot; writing a MaybeUninit drops nothing.
            unsafe { (*self.slots[index].get()).write(value) };
        }

        /// Moves the value out of occupied slot `index`, leaving it vacant.
        pub(super) fn take(&self, index: usize) -> T {
            // SAFETY: the contract guarantees the slot holds an initialised
            // value published by the producer, and that the consumer has
            // exclusive access; reading moves the value out, and the ring
            // never reads a slot twice before the producer rewrites it.
            unsafe { (*self.slots[index].get()).assume_init_read() }
        }
    }
}

use slots::Slots;

struct RingInner<T> {
    slots: Slots<T>,
    capacity: usize,
    /// Consumer position (total items popped). Padded: the producer reloads
    /// it only on the apparent-full slow path.
    head: CachePadded<AtomicUsize>,
    /// Producer position (total items pushed).
    tail: CachePadded<AtomicUsize>,
    closed: AtomicBool,
    /// Parks a producer blocked on a full ring.
    producer_parker: Parker,
    /// Parks the consumer when every ring it drains is empty — shared across
    /// the consumer's rings, hence the `Arc`.
    consumer_parker: Arc<Parker>,
    /// Ring-depth telemetry: observed on every push, never locked.
    depth: Gauge,
}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Drain undelivered items so their destructors run. Only the last
        // handle reaches this, so the relaxed loads are exact.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for position in head..tail {
            drop(self.slots.take(position % self.capacity));
        }
    }
}

/// Creates a bounded SPSC ring holding at most `capacity` items, returning
/// the producer and consumer handles, with a private consumer parker.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_with_parker(capacity, Arc::new(Parker::new()))
}

/// Like [`ring`], but parks the consumer on the given shared `parker` — the
/// building block for a consumer that drains several rings (a shard fed by
/// N dispatchers): every ring's producer wakes the same parker.
pub fn ring_with_parker<T: Send>(
    capacity: usize,
    parker: Arc<Parker>,
) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let inner = Arc::new(RingInner {
        slots: Slots::with_capacity(capacity),
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        producer_parker: Parker::new(),
        consumer_parker: parker,
        depth: Gauge::new(),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            cached_head: Cell::new(0),
        },
        Consumer {
            inner,
            cached_tail: Cell::new(0),
        },
    )
}

/// The producer (dispatcher) side of a bounded ring.
pub struct Producer<T> {
    inner: Arc<RingInner<T>>,
    /// Last observed consumer position: the fast path pushes without reading
    /// the shared head line while `tail - cached_head < capacity`.
    cached_head: Cell<usize>,
}

impl<T> Producer<T> {
    /// True when the ring looks full against the *freshly reloaded* head.
    /// Updates the cache.
    fn reload_full(&self, tail: usize) -> bool {
        let head = self.inner.head.0.load(Ordering::Acquire);
        self.cached_head.set(head);
        tail - head >= self.inner.capacity
    }

    /// Publishes `value` at `tail`. Separated so push/try_push share one
    /// definition of the store-then-wake ordering.
    fn commit(&self, tail: usize, value: T) {
        self.inner.slots.write(tail % self.inner.capacity, value);
        // SeqCst, not just Release: the consumer-side parker protocol needs
        // the index store ordered before the `waiting` flag load in unpark.
        self.inner.tail.0.store(tail + 1, Ordering::SeqCst);
        self.inner
            .depth
            .observe((tail + 1 - self.inner.head.0.load(Ordering::Relaxed)) as u64);
        self.inner.consumer_parker.unpark();
    }

    /// Pushes one item, blocking while the ring is full (backpressure):
    /// spins briefly, then parks until the consumer frees a slot.
    pub fn push(&self, value: T) -> Result<(), RingClosed> {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        if tail - self.cached_head.get() >= self.inner.capacity && self.reload_full(tail) {
            let mut spins = 0;
            while self.reload_full(tail) {
                if self.inner.closed.load(Ordering::SeqCst) {
                    return Err(RingClosed);
                }
                spins += 1;
                if spins < SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    self.inner.producer_parker.park_until(|| {
                        !self.reload_full(tail) || self.inner.closed.load(Ordering::SeqCst)
                    });
                }
            }
        }
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(RingClosed);
        }
        self.commit(tail, value);
        Ok(())
    }

    /// Pushes one item, blocking at most `wait` while the ring is full.
    /// Where [`push`](Producer::push) parks forever — correct when the
    /// consumer is healthy, a deadlock when it is wedged — this bails out
    /// with [`PushError::Timeout`] so the caller can shed the item and keep
    /// the rest of the pipeline moving (graceful degradation under
    /// overload), and with [`PushError::Closed`] when the consumer is gone.
    pub fn push_deadline(&self, value: T, wait: Duration) -> Result<(), PushError<T>> {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        if tail - self.cached_head.get() >= self.inner.capacity && self.reload_full(tail) {
            let deadline = Instant::now() + wait;
            let mut spins = 0;
            while self.reload_full(tail) {
                if self.inner.closed.load(Ordering::SeqCst) {
                    return Err(PushError::Closed(value));
                }
                spins += 1;
                if spins < SPIN_LIMIT {
                    std::hint::spin_loop();
                } else {
                    let woke = self.inner.producer_parker.park_deadline_until(
                        || !self.reload_full(tail) || self.inner.closed.load(Ordering::SeqCst),
                        deadline,
                    );
                    if !woke && self.reload_full(tail) {
                        return Err(PushError::Timeout(value));
                    }
                }
            }
        }
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(PushError::Closed(value));
        }
        self.commit(tail, value);
        Ok(())
    }

    /// Pushes without blocking; returns the item back if the ring is full or
    /// closed.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(value);
        }
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        if tail - self.cached_head.get() >= self.inner.capacity && self.reload_full(tail) {
            return Err(value);
        }
        self.commit(tail, value);
        Ok(())
    }

    /// Closes the ring: the consumer drains what is queued, then sees
    /// end-of-stream.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        self.inner.consumer_parker.unpark();
        self.inner.producer_parker.unpark();
    }

    /// Number of items currently queued. Lock-free (relaxed index reads):
    /// telemetry, not synchronisation.
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        let head = self.inner.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True if nothing is queued. Lock-free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the ring has ever been, in items (relaxed gauge, observed
    /// on every push).
    pub fn depth_high_watermark(&self) -> u64 {
        self.inner.depth.high_watermark()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // A vanished producer means end-of-stream for the consumer.
        self.close();
    }
}

/// The consumer (worker shard) side of a bounded ring.
pub struct Consumer<T> {
    inner: Arc<RingInner<T>>,
    /// Last observed producer position: the fast path pops without reading
    /// the shared tail line while `cached_tail > head`.
    cached_tail: Cell<usize>,
}

impl<T> Consumer<T> {
    /// True when the ring looks empty against the freshly reloaded tail.
    /// Updates the cache.
    fn reload_empty(&self, head: usize) -> bool {
        let tail = self.inner.tail.0.load(Ordering::Acquire);
        self.cached_tail.set(tail);
        tail == head
    }

    /// Takes the item at `head` and advances.
    fn consume(&self, head: usize) -> T {
        let value = self.inner.slots.take(head % self.inner.capacity);
        // SeqCst for the producer-side parker protocol (mirror of commit).
        self.inner.head.0.store(head + 1, Ordering::SeqCst);
        self.inner.producer_parker.unpark();
        value
    }

    /// Pops one item, blocking (spin-then-park) while the ring is empty.
    /// Returns `None` once the ring is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        let mut spins = 0;
        while self.cached_tail.get() == head && self.reload_empty(head) {
            if self.inner.closed.load(Ordering::SeqCst) && self.reload_empty(head) {
                return None;
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                self.inner.consumer_parker.park_until(|| {
                    !self.reload_empty(head) || self.inner.closed.load(Ordering::SeqCst)
                });
            }
        }
        Some(self.consume(head))
    }

    /// Pops without blocking; `None` when the ring is currently empty.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        if self.cached_tail.get() == head && self.reload_empty(head) {
            return None;
        }
        Some(self.consume(head))
    }

    /// Number of items currently queued. Lock-free.
    pub fn occupancy(&self) -> usize {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        let head = self.inner.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when the producer closed the ring and everything queued has been
    /// popped — end-of-stream.
    pub fn is_finished(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
            && self.reload_empty(self.inner.head.0.load(Ordering::Relaxed))
    }

    /// The deepest the ring has ever been, in items.
    pub fn depth_high_watermark(&self) -> u64 {
        self.inner.depth.high_watermark()
    }

    /// The parker this consumer blocks on (shared across a shard's rings).
    pub fn parker(&self) -> &Arc<Parker> {
        &self.inner.consumer_parker
    }

    /// Closes the ring from the consumer side without dropping the handle:
    /// producers stop accepting new items (and any producer parked on a full
    /// ring wakes with [`RingClosed`]), while this consumer can still drain
    /// what was already queued. The shard supervisor uses this to seal a
    /// dead shard's rings before counting the residue as lost.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        self.inner.producer_parker.unpark();
        self.inner.consumer_parker.unpark();
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // A vanished consumer must unblock a producer stuck in `push`.
        self.inner.closed.store(true, Ordering::SeqCst);
        self.inner.producer_parker.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_close_semantics() {
        let (tx, rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99), "ring is full");
        assert_eq!(rx.pop(), Some(0));
        assert_eq!(tx.try_push(99), Ok(()), "one slot freed");
        tx.close();
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert!(!rx.is_finished(), "still one queued item");
        assert_eq!(rx.pop(), Some(99));
        assert!(rx.is_finished());
        assert_eq!(rx.pop(), None, "closed and drained");
        assert_eq!(tx.push(7), Err(RingClosed));
    }

    #[test]
    fn occupancy_is_lock_free_and_tracks_watermark() {
        let (tx, rx) = ring::<u8>(8);
        assert!(tx.is_empty());
        assert_eq!(rx.occupancy(), 0);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.len(), 5);
        assert_eq!(rx.occupancy(), 5);
        rx.try_pop().unwrap();
        rx.try_pop().unwrap();
        assert_eq!(tx.len(), 3);
        tx.push(9).unwrap();
        assert_eq!(tx.depth_high_watermark(), 5, "deepest point was 5");
        assert_eq!(rx.depth_high_watermark(), 5);
    }

    #[test]
    fn blocking_push_applies_backpressure_across_threads() {
        let (tx, rx) = ring::<u64>(2);
        let producer = thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.push(i).unwrap();
            }
        });
        let mut expected = 0u64;
        while let Some(item) = rx.pop() {
            assert_eq!(item, expected, "FIFO order under backpressure");
            expected += 1;
            if expected == 10_000 {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, 10_000);
    }

    #[test]
    fn concurrent_hammer_preserves_order_and_loses_nothing() {
        // Deliberately tiny capacity so both sides cross the
        // full/empty boundaries (and the spin→park transition)
        // constantly.
        const ITEMS: u64 = 200_000;
        let (tx, rx) = ring::<u64>(4);
        let producer = thread::spawn(move || {
            for i in 0..ITEMS {
                tx.push(i).unwrap();
            }
            // tx drops here: end-of-stream for the consumer.
        });
        let consumer = thread::spawn(move || {
            let mut next = 0u64;
            while let Some(item) = rx.pop() {
                assert_eq!(item, next);
                next += 1;
            }
            next
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), ITEMS, "every item delivered");
    }

    #[test]
    fn dropping_consumer_unblocks_producer() {
        let (tx, rx) = ring::<u8>(1);
        tx.push(1).unwrap();
        let producer = thread::spawn(move || tx.push(2));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(RingClosed));
    }

    #[test]
    fn dropping_producer_finishes_the_stream() {
        let (tx, rx) = ring::<u8>(4);
        tx.push(1).unwrap();
        drop(tx);
        assert_eq!(rx.pop(), Some(1), "queued items still drain");
        assert_eq!(rx.pop(), None, "then end-of-stream");
    }

    #[test]
    fn dropping_a_loaded_ring_drops_queued_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (tx, rx) = ring::<Counted>(8);
        for _ in 0..5 {
            tx.push(Counted).unwrap();
        }
        drop(rx.pop()); // one consumed and dropped normally
        drop(tx);
        drop(rx); // four still queued: the ring must free them
        assert_eq!(DROPS.load(Ordering::SeqCst), 5, "no queued item leaked");
    }

    #[test]
    fn shared_parker_wakes_a_multi_ring_consumer() {
        let parker = Arc::new(Parker::new());
        let (tx_a, rx_a) = ring_with_parker::<u32>(4, Arc::clone(&parker));
        let (tx_b, rx_b) = ring_with_parker::<u32>(4, Arc::clone(&parker));
        let consumer = thread::spawn(move || {
            // Drain both rings until both finish, parking on the
            // shared parker whenever both are empty.
            let mut seen = Vec::new();
            loop {
                let mut progressed = false;
                for rx in [&rx_a, &rx_b] {
                    if let Some(item) = rx.try_pop() {
                        seen.push(item);
                        progressed = true;
                    }
                }
                if progressed {
                    continue;
                }
                if rx_a.is_finished() && rx_b.is_finished() {
                    return seen;
                }
                rx_a.parker().park_until(|| {
                    rx_a.occupancy() > 0
                        || rx_b.occupancy() > 0
                        || (rx_a.is_finished() && rx_b.is_finished())
                });
            }
        });
        // Give the consumer time to park, then wake it from
        // either producer.
        thread::sleep(std::time::Duration::from_millis(10));
        tx_b.push(2).unwrap();
        thread::sleep(std::time::Duration::from_millis(10));
        tx_a.push(1).unwrap();
        drop(tx_a);
        drop(tx_b);
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn push_deadline_sheds_instead_of_parking_forever() {
        let (tx, rx) = ring::<u8>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        // Full ring, nobody draining: the bounded push must come
        // back with Timeout and hand the value back.
        let start = Instant::now();
        match tx.push_deadline(3, Duration::from_millis(20)) {
            Err(PushError::Timeout(value)) => assert_eq!(value, 3),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
        // A freed slot lets the same call succeed immediately.
        assert_eq!(rx.pop(), Some(1));
        tx.push_deadline(3, Duration::from_millis(20)).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn push_deadline_reports_closed_ring() {
        let (tx, rx) = ring::<u8>(1);
        tx.push(1).unwrap();
        rx.close();
        match tx.push_deadline(2, Duration::from_secs(5)) {
            Err(PushError::Closed(value)) => assert_eq!(value, 2),
            other => panic!("expected closed, got {other:?}"),
        }
        // The consumer can still drain what was queued.
        assert_eq!(rx.pop(), Some(1));
        assert!(rx.is_finished());
    }

    #[test]
    fn consumer_close_unblocks_parked_producer() {
        let (tx, rx) = ring::<u8>(1);
        tx.push(1).unwrap();
        let producer = thread::spawn(move || tx.push(2));
        thread::sleep(std::time::Duration::from_millis(10));
        rx.close();
        assert_eq!(producer.join().unwrap(), Err(RingClosed));
        assert_eq!(rx.pop(), Some(1), "residue drains after close");
    }
}
