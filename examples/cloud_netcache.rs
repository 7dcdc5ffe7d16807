//! A cloud-style deployment: two research-system tenants (NetCache and
//! NetChain) plus a QoS tenant share one NIC pipeline, with the system-level
//! module providing routing and per-tenant virtual IPs.
//!
//! Run with `cargo run --example cloud_netcache`.

use menshen::prelude::*;
use menshen_packet::Ipv4Address;
use menshen_programs::{netcache::NetCache, netchain::NetChain, qos::Qos};

fn main() {
    let mut pipeline = MenshenPipeline::new(TABLE5);

    // Infrastructure state owned by the operator: routes and per-tenant
    // virtual IPs, installed in the system-level module.
    {
        let system = pipeline.system_mut();
        system.set_default_port(48);
        system.add_route(Ipv4Address::new(172, 16, 0, 10), 10);
        system.add_route(Ipv4Address::new(172, 16, 0, 20), 20);
        // Both tenants use the same virtual service address 192.168.100.1,
        // mapped to different physical servers.
        system.add_virtual_ip(
            21,
            Ipv4Address::new(192, 168, 100, 1),
            Ipv4Address::new(172, 16, 0, 10),
        );
        system.add_virtual_ip(
            22,
            Ipv4Address::new(192, 168, 100, 1),
            Ipv4Address::new(172, 16, 0, 20),
        );
    }

    // Tenant modules, each admitted by the pipeline's static checks (§3.4)
    // under the default first-come-first-served sharing policy.
    let netcache = NetCache::new();
    let netchain = NetChain::new();
    let qos = Qos;
    let tenants: Vec<(u16, &dyn EvaluatedProgram)> =
        vec![(21, &netcache), (22, &netchain), (23, &qos)];
    for (module_id, program) in &tenants {
        let report = pipeline
            .load_module(&program.build(*module_id).expect("tenant compiles"))
            .expect("admission control accepts the tenant");
        println!(
            "admitted {:<9} as module {} ({} daisy-chain writes)",
            program.name(),
            module_id,
            report.reconfig_packets
        );
    }

    // Drive each tenant's workload through the shared pipeline.
    let mut all_ok = true;
    for (module_id, program) in &tenants {
        let mut forwarded = 0;
        for packet in program.packets(*module_id, 30, 7) {
            let verdict = pipeline.process(packet.clone());
            all_ok &= program.check_output(&packet, &verdict);
            if verdict.is_forwarded() {
                forwarded += 1;
            }
        }
        println!(
            "{:<9} processed 30 packets, {forwarded} forwarded",
            program.name()
        );
    }

    // Tenants with the same *virtual* destination are routed to different
    // physical servers by the system-level module.
    for module_id in [21u16, 22] {
        let packet = PacketBuilder::new().with_vlan(module_id).build_udp(
            [10, 9, 0, 1],
            [192, 168, 100, 1],
            1234,
            4321,
            &[0u8; 8],
        );
        if let Verdict::Forwarded { ports, .. } = pipeline.process(packet) {
            println!(
                "module {module_id} packet to virtual 192.168.100.1 leaves via port {:?}",
                ports
            );
        }
    }

    println!();
    println!(
        "device statistics: {} modules loaded, {} link packets, {} reconfiguration packets",
        pipeline.loaded_modules().len(),
        pipeline.system().stats().link_packets,
        pipeline.filter().reconfig_counter()
    );
    println!(
        "oracle verdict across all tenants: {}",
        if all_ok {
            "every tenant isolated and correct"
        } else {
            "VIOLATION DETECTED"
        }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
