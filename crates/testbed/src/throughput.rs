//! Throughput and latency sweeps over packet size (Figure 11).
//!
//! Absolute throughput comes from the analytical platform model
//! ([`menshen_rmt::clock`]) — the functional simulator cannot run at
//! 100 Gbit/s — but every sweep also pushes a burst of real packets of each
//! size through a loaded [`MenshenPipeline`] to confirm the data path
//! forwards them, so a regression that broke packet processing would also
//! break the figure.

use crate::traffic::TrafficGenerator;
use menshen_core::{MenshenPipeline, ModuleConfig, ModuleId, BURST_SIZE};
use menshen_rmt::clock::PlatformTiming;
use menshen_rmt::params::PipelineParams;

/// One row of a Figure 11a–c throughput plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Frame size in bytes.
    pub frame_len: usize,
    /// Layer-1 throughput (frame + preamble + IFG) in Gbit/s.
    pub l1_gbps: f64,
    /// Layer-2 throughput (frame only) in Gbit/s.
    pub l2_gbps: f64,
    /// Packet rate in Mpps.
    pub mpps: f64,
    /// Fraction of functionally simulated packets that were forwarded.
    pub forwarded_fraction: f64,
}

/// One row of the Figure 11d latency plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Frame size in bytes.
    pub frame_len: usize,
    /// Pipeline traversal latency in cycles.
    pub pipeline_cycles: f64,
    /// Pipeline traversal latency in nanoseconds.
    pub pipeline_ns: f64,
    /// Sampled end-to-end latency (pipeline + MAC/loopback) in microseconds.
    pub sampled_us: f64,
}

/// Runs a throughput sweep: for each frame size, the analytical rate on
/// `platform` plus a functional check that `module` forwards `check_packets`
/// packets of that size.
pub fn throughput_sweep(
    platform: &PlatformTiming,
    module: &ModuleConfig,
    sizes: &[usize],
    check_packets: usize,
) -> Vec<ThroughputPoint> {
    let mut pipeline = MenshenPipeline::new(PipelineParams::default());
    pipeline
        .load_module(module)
        .expect("module loads for the sweep");
    let module_id = module.module_id;
    let mut generator = TrafficGenerator::new(0xC0FFEE);
    let mut verdicts = Vec::new();

    sizes
        .iter()
        .map(|&frame_len| {
            // The functional confirmation runs through the batched data path
            // in DPDK-style bursts — the same path the throughput benches
            // measure. One verdict buffer is reused across all bursts.
            let packets = generator.burst(module_id.value(), frame_len, check_packets);
            let forwarded: usize = packets
                .chunks(BURST_SIZE)
                .map(|burst| {
                    pipeline.process_batch_into(burst, &mut verdicts);
                    verdicts.iter().filter(|v| v.is_forwarded()).count()
                })
                .sum();
            ThroughputPoint {
                frame_len,
                l1_gbps: platform.throughput_l1_gbps(frame_len),
                l2_gbps: platform.throughput_l2_gbps(frame_len),
                mpps: platform.achieved_pps(frame_len) / 1e6,
                forwarded_fraction: if check_packets == 0 {
                    1.0
                } else {
                    forwarded as f64 / check_packets as f64
                },
            }
        })
        .collect()
}

/// Runs the latency sweep of Figure 11d on `platform`.
pub fn latency_sweep(platform: &PlatformTiming, sizes: &[usize]) -> Vec<LatencyPoint> {
    sizes
        .iter()
        .map(|&frame_len| LatencyPoint {
            frame_len,
            pipeline_cycles: platform.latency_cycles(frame_len),
            pipeline_ns: platform.latency_ns(frame_len),
            sampled_us: platform.sampled_latency_us(frame_len),
        })
        .collect()
}

/// Convenience: a minimal pass-through module for sweeps that do not care
/// about program behaviour (all packets simply forward).
pub fn passthrough_module(module_id: u16) -> ModuleConfig {
    ModuleConfig::empty(
        ModuleId::new(module_id),
        "passthrough",
        PipelineParams::default().num_stages,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::SizeSweep;
    use menshen_rmt::clock::{CORUNDUM_OPTIMIZED, CORUNDUM_UNOPTIMIZED, NETFPGA_OPTIMIZED};

    #[test]
    fn figure_11a_shape_netfpga() {
        let points = throughput_sweep(
            &NETFPGA_OPTIMIZED,
            &passthrough_module(1),
            SizeSweep::NetFpga.sizes(),
            20,
        );
        assert_eq!(points.len(), 5);
        // All packets forwarded functionally.
        assert!(points.iter().all(|p| p.forwarded_fraction == 1.0));
        // Line rate from 96 bytes onward; below line rate at 64 bytes.
        assert!(points[0].l1_gbps < 9.5);
        for point in &points[1..] {
            assert!(point.l1_gbps > 9.9, "size {}", point.frame_len);
        }
    }

    #[test]
    fn figure_11b_and_11c_shape_corundum() {
        let optimized = throughput_sweep(
            &CORUNDUM_OPTIMIZED,
            &passthrough_module(1),
            SizeSweep::Corundum.sizes(),
            10,
        );
        let unoptimized = throughput_sweep(
            &CORUNDUM_UNOPTIMIZED,
            &passthrough_module(1),
            SizeSweep::Corundum.sizes(),
            10,
        );
        // Optimised reaches 100 G at 256 bytes; unoptimised never does.
        let at = |points: &[ThroughputPoint], len: usize| {
            points.iter().find(|p| p.frame_len == len).copied().unwrap()
        };
        assert!(at(&optimized, 256).l1_gbps > 99.0);
        assert!(at(&unoptimized, 256).l1_gbps < 60.0);
        assert!(at(&unoptimized, 1500).l2_gbps > 70.0 && at(&unoptimized, 1500).l2_gbps < 95.0);
        // Optimised dominates unoptimised at every size.
        for (o, u) in optimized.iter().zip(unoptimized.iter()) {
            assert!(o.l2_gbps >= u.l2_gbps);
            assert!(o.forwarded_fraction == 1.0 && u.forwarded_fraction == 1.0);
        }
    }

    #[test]
    fn figure_11d_latency_range() {
        let points = latency_sweep(&CORUNDUM_OPTIMIZED, SizeSweep::Corundum.sizes());
        for point in &points {
            assert!(
                point.sampled_us > 0.9 && point.sampled_us < 1.3,
                "{point:?}"
            );
            assert!(point.pipeline_ns > 300.0 && point.pipeline_ns < 700.0);
        }
        assert!(points.last().unwrap().pipeline_cycles > points[0].pipeline_cycles);
    }
}
