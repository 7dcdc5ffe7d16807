//! Shared benchmark workloads.
//!
//! The multi-tenant flow-rule workload the benches and the integration
//! tests share: this module owns the tenant module shape and the packet
//! stream they use.

use menshen_core::{MatchRule, ModuleConfig, ModuleId, StageModuleConfig};
use menshen_packet::{Packet, PacketBuilder};
use menshen_rmt::action::{AluInstruction, VliwAction};
use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParseAction, ParserEntry};
use menshen_rmt::match_table::LookupKey;
use menshen_rmt::phv::ContainerRef as C;
use menshen_rmt::TABLE5;

/// [`flow_rule_tenant_with_port`] with the default `9000 + module_id`
/// rewrite port.
pub fn flow_rule_tenant(module_id: u16, rules: usize) -> ModuleConfig {
    flow_rule_tenant_with_port(module_id, rules, 9000 + module_id)
}

/// A tenant matching on the destination IP (h4(1)) with `rules` distinct
/// flow rules in stage 0: each rewrites the UDP destination port to
/// `rewrite_port` and bumps a per-tenant stateful counter — the same shape
/// as the CALC-style modules, scaled up to a realistic table size. The
/// explicit port parameter lets the equivalence tests reconfigure a tenant
/// to observably different behaviour.
pub fn flow_rule_tenant_with_port(module_id: u16, rules: usize, rewrite_port: u16) -> ModuleConfig {
    let mut config = ModuleConfig::empty(
        ModuleId::new(module_id),
        format!("tenant-{module_id}"),
        TABLE5.num_stages,
    );
    config.parser = ParserEntry::new(vec![
        ParseAction::new(34, C::h4(1)).unwrap(), // dst IP
        ParseAction::new(40, C::h2(0)).unwrap(), // UDP dst port
    ])
    .unwrap();
    config.deparser = ParserEntry::new(vec![ParseAction::new(40, C::h2(0)).unwrap()]).unwrap();
    let rules = (0..rules)
        .map(|flow| MatchRule {
            key: LookupKey::from_slots(
                [
                    (0, 6),
                    (0, 6),
                    (flow_dst_ip(module_id, flow), 4),
                    (0, 4),
                    (0, 2),
                    (0, 2),
                ],
                false,
            ),
            action: VliwAction::nop()
                .with(C::h2(0), AluInstruction::set(rewrite_port))
                .with(C::h4(7), AluInstruction::loadd(0)),
        })
        .collect();
    config.stages[0] = StageModuleConfig {
        key_extract: Some(KeyExtractEntry {
            slots_4b: [1, 0],
            ..Default::default()
        }),
        key_mask: Some(KeyMask::for_slots(
            [false, false, true, false, false, false],
            false,
        )),
        rules,
        stateful_words: 16,
        ..Default::default()
    };
    config
}

/// The destination IP of one tenant flow: `10.<tenant>.<flow_hi>.<flow_lo>`.
pub fn flow_dst_ip(module_id: u16, flow: usize) -> u64 {
    0x0a00_0000 | (u64::from(module_id) << 16) | (flow as u64 & 0xffff)
}

/// An all-hits packet stream over `tenants` tenants × `rules_per_tenant`
/// flows, round-robin across tenants and flows. Source ports vary per flow
/// so 5-tuple RSS steering sees distinct flows, not one fat flow.
pub fn flow_workload(tenants: u16, rules_per_tenant: usize, packets: usize) -> Vec<Packet> {
    (0..packets)
        .map(|i| {
            let module_id = 1 + (i as u16 % tenants);
            let flow = (i / tenants as usize) % rules_per_tenant;
            let ip = flow_dst_ip(module_id, flow);
            PacketBuilder::udp_data(
                module_id,
                [10, 0, 0, 1],
                [
                    ((ip >> 24) & 0xff) as u8,
                    ((ip >> 16) & 0xff) as u8,
                    ((ip >> 8) & 0xff) as u8,
                    (ip & 0xff) as u8,
                ],
                5000 + (flow % 1024) as u16,
                80,
                &[0u8; 8],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_core::MenshenPipeline;

    #[test]
    fn workload_is_all_hits() {
        let params = TABLE5.with_table_depth(2048);
        let mut pipeline = MenshenPipeline::new(params);
        for module_id in 1..=3u16 {
            pipeline
                .load_module(&flow_rule_tenant(module_id, 64))
                .unwrap();
        }
        let packets = flow_workload(3, 64, 192);
        let forwarded = pipeline
            .process_batch(packets)
            .iter()
            .filter(|v| v.is_forwarded())
            .count();
        assert_eq!(forwarded, 192);
    }
}
