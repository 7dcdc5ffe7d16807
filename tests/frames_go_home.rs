//! Who frees what: a counting allocator proves that, on the threaded data
//! path, every frame is freed by the thread that allocated it.
//!
//! The submitting thread allocates the ingress frames; a shard only borrows
//! them and sends each spent burst home over its return ring, where the
//! submitter frees the frames at its next call into the runtime. The one
//! thing a shard allocates per packet — the rewritten clone inside a
//! forwarding verdict — it frees itself. The producer/consumer pattern the
//! allocator handles worst (malloc on one thread, free on another) is gone
//! from the steady state, and this suite is what keeps it gone.
//!
//! Every frame here is exactly [`MARK`] bytes long, a size nothing else in
//! the process asks for, so the allocator can tell frames from everything
//! else by size alone. A marked block carries a hidden header recording
//! whether a `menshen-shard-*` thread allocated it; freeing it tallies
//! (born where, freed where).

use menshen::core::MenshenPipeline;
use menshen::packet::{Packet, PacketBuilder};
use menshen::runtime::{RuntimeOptions, ShardedRuntime, SteeringMode};
use menshen_bench::workloads::{flow_dst_ip, flow_rule_tenant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The one frame length this suite uses: 46 header bytes + 731 of payload.
const MARK: usize = 777;
/// Room for the birth record in front of a marked block; also the strictest
/// alignment a marked block may ask for.
const HEADER: usize = 16;

const OFF_SHARD: usize = 0;
const ON_SHARD: usize = 1;

/// Marked blocks allocated, by where.
static BORN: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
/// Marked blocks freed, by `[born where][freed where]`.
static FREED: [[AtomicU64; 2]; 2] = [
    [AtomicU64::new(0), AtomicU64::new(0)],
    [AtomicU64::new(0), AtomicU64::new(0)],
];

thread_local! {
    /// Which side of the plane this thread is on: 0 until first asked.
    static SIDE: Cell<u8> = const { Cell::new(0) };
}

/// `ON_SHARD` for the runtime's shard threads, `OFF_SHARD` for everyone
/// else (the test thread, dispatcher threads). Only ever called for marked
/// blocks, i.e. on threads that are up and running.
fn side() -> usize {
    SIDE.with(|side| {
        if side.get() == 0 {
            let on_shard = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("menshen-shard-"));
            side.set(1 + on_shard as u8);
        }
        usize::from(side.get() - 1)
    })
}

struct CountingAllocator;

fn marked(layout: Layout) -> Option<Layout> {
    (layout.size() == MARK && layout.align() <= HEADER)
        .then(|| Layout::from_size_align(MARK + HEADER, HEADER).expect("a valid layout"))
}

// SAFETY: every request is forwarded to `System`; a marked block is
// allocated `HEADER` bytes larger (and `HEADER`-aligned, which satisfies the
// smaller alignment asked for), the caller gets the address past the header,
// and `dealloc` — told the same layout, so taking the same branch — steps
// back by `HEADER` to the address and layout `System` handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(real) = marked(layout) else {
            return System.alloc(layout);
        };
        let base = System.alloc(real);
        if base.is_null() {
            return base;
        }
        let born = side();
        BORN[born].fetch_add(1, Ordering::Relaxed);
        // SAFETY: `base` is valid for `MARK + HEADER` bytes and aligned for
        // a `usize`.
        base.cast::<usize>().write(born);
        base.add(HEADER)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let Some(real) = marked(layout) else {
            return System.dealloc(ptr, layout);
        };
        // SAFETY: a marked block was handed out `HEADER` bytes past the
        // start of its real allocation, whose first word is the birth record.
        let base = ptr.sub(HEADER);
        let born = base.cast::<usize>().read();
        FREED[born][side()].fetch_add(1, Ordering::Relaxed);
        System.dealloc(base, real);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The tallies are process-wide, so the scenarios take turns.
static TURN: Mutex<()> = Mutex::new(());

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tally {
    born: [u64; 2],
    freed: [[u64; 2]; 2],
}

impl Tally {
    fn now() -> Tally {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        Tally {
            born: [load(&BORN[0]), load(&BORN[1])],
            freed: [
                [load(&FREED[0][0]), load(&FREED[0][1])],
                [load(&FREED[1][0]), load(&FREED[1][1])],
            ],
        }
    }

    fn since(self, earlier: Tally) -> Tally {
        let mut delta = self;
        for born in 0..2 {
            delta.born[born] -= earlier.born[born];
            for freed in 0..2 {
                delta.freed[born][freed] -= earlier.freed[born][freed];
            }
        }
        delta
    }
}

const TENANTS: u16 = 4;
const FLOWS: usize = 16;

fn template() -> MenshenPipeline {
    let mut pipeline = MenshenPipeline::new(menshen::rmt::TABLE5.with_table_depth(256));
    for tenant in 1..=TENANTS {
        pipeline
            .load_module(&flow_rule_tenant(tenant, FLOWS))
            .expect("tenant loads");
    }
    pipeline
}

/// `count` marked frames: three in four belong to a loaded tenant and hit a
/// flow rule (forwarded, so the shard clones them), the fourth carries a
/// VLAN no module owns (dropped, no clone). Source ports vary so both shards
/// see traffic under 5-tuple steering.
fn marked_frames(round: usize, count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let n = round * count + i;
            let tenant = 1 + (n as u16 % TENANTS);
            let ip = flow_dst_ip(tenant, n % FLOWS);
            let built = PacketBuilder::udp_data(
                if n % 4 == 3 { TENANTS + 1 } else { tenant },
                [10, 0, 0, 1],
                (ip as u32).to_be_bytes(),
                1024 + (n % 4096) as u16,
                80,
                &[0xAB; MARK - 46],
            );
            assert_eq!(built.len(), MARK, "the frame length is the mark");
            // An exact-size copy, so the block backing the frame is MARK
            // bytes whatever capacity the builder left behind.
            Packet::from_bytes(built.bytes().to_vec())
        })
        .collect()
}

const ROUNDS: usize = 40;
const PER_ROUND: usize = 256;

/// Steady state: submit/flush rounds, each far smaller than a return ring,
/// then an orderly shutdown.
fn frames_are_freed_where_they_were_allocated(dispatchers: usize) {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = Tally::now();
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2)
            .with_steering(SteeringMode::FiveTuple)
            .with_dispatchers(dispatchers),
    );
    for round in 0..ROUNDS {
        runtime
            .submit_owned(marked_frames(round, PER_ROUND))
            .expect("shards are up");
        runtime.flush();
    }
    let audit = runtime.conservation_audit().expect("audit");
    let stats = runtime.shard_stats();
    runtime.shutdown();
    drop(runtime);
    let tally = Tally::now().since(before);

    let submitted = (ROUNDS * PER_ROUND) as u64;
    assert!(audit.is_balanced(), "{audit:?}");
    assert_eq!(audit.submitted, submitted);
    assert_eq!(audit.processed, submitted, "nothing shed, nothing lost");
    assert!(
        stats.iter().all(|shard| shard.packets > 0),
        "both shards must carry traffic for the proof to mean anything: {stats:?}"
    );

    assert_eq!(
        tally.freed[OFF_SHARD][ON_SHARD], 0,
        "a shard freed a frame the submitter allocated: {tally:?}"
    );
    assert_eq!(
        tally.freed[ON_SHARD][OFF_SHARD], 0,
        "a verdict clone left its shard: {tally:?}"
    );
    assert!(
        tally.born[OFF_SHARD] >= submitted,
        "every ingress frame is a marked block: {tally:?}"
    );
    assert_eq!(
        tally.freed[OFF_SHARD][OFF_SHARD], tally.born[OFF_SHARD],
        "every frame allocated off-shard was freed off-shard: {tally:?}"
    );
    assert!(
        audit.forwarded > 0 && audit.forwarded < submitted,
        "the mix must both forward and drop: {audit:?}"
    );
    assert_eq!(
        tally.born[ON_SHARD], audit.forwarded,
        "the shards allocate one clone per forwarded packet and nothing else: {tally:?}"
    );
    assert_eq!(
        tally.freed[ON_SHARD][ON_SHARD], tally.born[ON_SHARD],
        "the shards freed exactly the clones they made: {tally:?}"
    );
}

#[test]
fn inline_dispatch_frees_every_frame_on_its_own_thread() {
    frames_are_freed_where_they_were_allocated(0);
}

#[test]
fn two_dispatcher_threads_free_every_frame_on_its_own_thread() {
    frames_are_freed_where_they_were_allocated(2);
}
