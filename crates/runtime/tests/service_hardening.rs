//! Service-mode hardening guarantees of the sharded runtime: typed control
//! deadlines instead of hangs, idempotent panic-free shutdown, and the
//! [`EgressSink`] hook that carries verdicts out of the worker threads.
//!
//! These are the runtime-side contracts `crates/io`'s `Service` builds on —
//! a long-lived network service must never hang on a wedged shard, never
//! panic when torn down twice, and must see exactly one egress call per
//! processed packet (in both execution modes) so socket backends can echo
//! every verdict.

use menshen_core::{MenshenPipeline, Verdict};
use menshen_packet::{Packet, PacketBuilder};
use menshen_rmt::TABLE5;
use menshen_runtime::{EgressSink, RuntimeError, RuntimeOptions, ShardedRuntime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn empty_template() -> MenshenPipeline {
    MenshenPipeline::new(TABLE5)
}

fn some_packets(n: usize) -> Vec<Packet> {
    let builder = PacketBuilder::new().with_vlan(7);
    (0..n)
        .map(|i| {
            builder.build_udp(
                [10, 0, 0, 1],
                [10, 0, (i >> 8) as u8, i as u8],
                4000,
                80,
                &[],
            )
        })
        .collect()
}

/// Counts transmits and forwarded verdicts; never panics.
#[derive(Default)]
struct CountingSink {
    transmits: AtomicU64,
    forwarded: AtomicU64,
}

impl EgressSink for CountingSink {
    fn transmit(&self, _packet: &Packet, verdict: &Verdict) {
        self.transmits.fetch_add(1, Ordering::Relaxed);
        if verdict.is_forwarded() {
            self.forwarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Epoch deadlines (satellite: typed timeout instead of blocking forever)
// ---------------------------------------------------------------------------

#[test]
fn wait_for_epoch_deadline_surfaces_epoch_timeout() {
    let runtime = ShardedRuntime::from_pipeline(&empty_template(), RuntimeOptions::threaded(2));
    // Epoch 1 is never published, so every live shard is "stalled" on it.
    let limit = Duration::from_millis(40);
    let start = Instant::now();
    let err = runtime
        .wait_for_epoch_deadline(1, Some(limit))
        .expect_err("an unpublished epoch must time out");
    assert_eq!(
        err,
        RuntimeError::EpochTimeout {
            epoch: 1,
            waited: limit
        }
    );
    assert!(
        start.elapsed() >= limit,
        "the waiter must actually wait out the deadline"
    );
}

#[test]
fn configured_control_timeout_applies_to_wait_for_epoch() {
    let mut runtime = ShardedRuntime::from_pipeline(&empty_template(), RuntimeOptions::threaded(1));
    assert_eq!(runtime.control_timeout(), None);
    runtime.set_control_timeout(Some(Duration::from_millis(30)));
    let err = runtime.wait_for_epoch(9).expect_err("deadline configured");
    assert!(matches!(err, RuntimeError::EpochTimeout { epoch: 9, .. }));
    // A published epoch resolves comfortably inside a sane deadline, so the
    // timeout is inert on the healthy path.
    runtime.set_control_timeout(Some(Duration::from_secs(10)));
    runtime
        .set_default_port(7)
        .expect("a control op completes inside the deadline");
    runtime
        .wait_for_epoch(runtime.current_epoch())
        .expect("live shards apply published epochs");
}

#[test]
fn epoch_timeout_is_a_liveness_report_not_a_rollback() {
    let mut runtime = ShardedRuntime::from_pipeline(&empty_template(), RuntimeOptions::threaded(1));
    let err = runtime.wait_for_epoch_deadline(3, Some(Duration::from_millis(20)));
    assert!(matches!(err, Err(RuntimeError::EpochTimeout { .. })));
    // Publishing up to that epoch afterwards converges normally.
    for port in 1..=3 {
        runtime.set_default_port(port).expect("control op");
    }
    assert_eq!(runtime.current_epoch(), 3);
    runtime
        .wait_for_epoch_deadline(3, Some(Duration::from_secs(10)))
        .expect("the once-timed-out epoch eventually applies");
}

// ---------------------------------------------------------------------------
// Shutdown audit (satellite: idempotent, panic-free, typed errors after)
// ---------------------------------------------------------------------------

#[test]
fn shutdown_is_idempotent() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &empty_template(),
        RuntimeOptions::threaded(2).with_dispatchers(2),
    );
    runtime
        .submit_owned(some_packets(64))
        .expect("live runtime accepts packets");
    runtime.flush();
    runtime.shutdown();
    runtime.shutdown(); // second call must be a no-op, not a panic or hang
    runtime.shutdown();
    // Drop runs shutdown once more.
}

#[test]
fn submit_after_shutdown_is_a_typed_error() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &empty_template(),
        RuntimeOptions::threaded(2).with_dispatchers(1),
    );
    runtime.shutdown();
    let err = runtime
        .submit_owned(some_packets(8))
        .expect_err("a shut-down plane must refuse packets");
    assert!(
        matches!(
            err,
            RuntimeError::ShardDown { .. } | RuntimeError::DispatcherDown { .. }
        ),
        "expected a typed plane-down error, got {err:?}"
    );
}

#[test]
fn control_after_shutdown_errors_instead_of_hanging() {
    let mut runtime = ShardedRuntime::from_pipeline(&empty_template(), RuntimeOptions::threaded(2));
    runtime.set_control_timeout(Some(Duration::from_secs(5)));
    runtime.shutdown();
    let err = runtime
        .set_default_port(7)
        .expect_err("control ops on a dead plane must fail");
    assert!(
        matches!(err, RuntimeError::ShardDown { .. }),
        "expected ShardDown, got {err:?}"
    );
    // An op the configuration refuses is refused before anything is
    // published, dead plane or not.
    let err = runtime
        .install_rules(menshen_core::ModuleId::new(1), 0, &[])
        .expect_err("no module 1 is loaded");
    assert!(
        matches!(err, RuntimeError::Rejected(_)),
        "expected Rejected, got {err:?}"
    );
}

#[test]
fn shutdown_after_resize_is_clean() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &empty_template(),
        RuntimeOptions::threaded(2).with_dispatchers(1),
    );
    runtime.submit_owned(some_packets(32)).unwrap();
    runtime.resize(4).expect("scale-out succeeds");
    runtime.submit_owned(some_packets(32)).unwrap();
    runtime.resize(2).expect("scale-in succeeds");
    runtime.flush();
    runtime.shutdown();
    runtime.shutdown();
}

#[test]
fn flush_after_shutdown_returns_immediately() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &empty_template(),
        RuntimeOptions::threaded(2).with_dispatchers(2),
    );
    runtime.shutdown();
    let start = Instant::now();
    runtime.flush();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "flush on an exited plane must not block"
    );
}

// ---------------------------------------------------------------------------
// EgressSink: one transmit per processed packet, both execution modes
// ---------------------------------------------------------------------------

#[test]
fn egress_sink_sees_every_packet_threaded() {
    let sink = Arc::new(CountingSink::default());
    let mut runtime = ShardedRuntime::from_pipeline(
        &empty_template(),
        RuntimeOptions::threaded(2).with_dispatchers(2),
    );
    runtime.set_egress(Some(sink.clone()));
    let total = 512usize;
    runtime.submit_owned(some_packets(total)).unwrap();
    runtime.flush();
    assert_eq!(sink.transmits.load(Ordering::Relaxed), total as u64);
    // No module is loaded, so every verdict is a drop.
    assert_eq!(sink.forwarded.load(Ordering::Relaxed), 0);

    // Removing the sink stops the flow at the next burst boundary.
    runtime.set_egress(None);
    runtime.submit_owned(some_packets(64)).unwrap();
    runtime.flush();
    assert_eq!(sink.transmits.load(Ordering::Relaxed), total as u64);
    runtime.shutdown();
}

#[test]
fn egress_sink_sees_every_packet_deterministic() {
    let sink = Arc::new(CountingSink::default());
    let mut runtime =
        ShardedRuntime::from_pipeline(&empty_template(), RuntimeOptions::deterministic(2));
    runtime.set_egress(Some(sink.clone()));
    let verdicts = runtime.process_batch(some_packets(100)).unwrap();
    assert_eq!(verdicts.len(), 100);
    assert_eq!(sink.transmits.load(Ordering::Relaxed), 100);
}

#[test]
fn egress_sink_survives_resize() {
    let sink = Arc::new(CountingSink::default());
    let mut runtime = ShardedRuntime::from_pipeline(
        &empty_template(),
        RuntimeOptions::threaded(2).with_dispatchers(1),
    );
    runtime.set_egress(Some(sink.clone()));
    runtime.submit_owned(some_packets(128)).unwrap();
    runtime.resize(4).expect("scale-out succeeds");
    // Shards stood up by the resize must adopt the already-installed sink.
    runtime.submit_owned(some_packets(128)).unwrap();
    runtime.flush();
    assert_eq!(sink.transmits.load(Ordering::Relaxed), 256);
    runtime.shutdown();
}
