//! LPM firewall: flat match tables through the sharded runtime.
//!
//! Compiles a firewall module whose `routes` table is declared `match = lpm`
//! (longest-prefix match on the destination IP) and whose `acl` table is
//! `match = range` (priority intervals over the UDP destination port), loads
//! it onto a sharded runtime, and installs rules *incrementally* over the
//! control log — including a live install published while the data path
//! keeps forwarding, the non-quiescing path the million-rule tables exist
//! for. Finishes with the bytes-per-entry breakdown of each layout.
//!
//! Run with `cargo run --example lpm_firewall`.

use menshen::prelude::*;
use menshen_cost::MatchMemoryModel;
use menshen_runtime::{RuntimeOptions, ShardedRuntime};

const FIREWALL: &str = r#"
module firewall {
    parser {
        extract ethernet;
        extract vlan;
        extract ipv4;
        extract udp;
    }
    table routes {
        key = { ipv4.dst_addr; }
        match = lpm;
        actions = { to_core; to_edge; to_peering; }
    }
    table acl {
        key = { udp.dst_port; }
        match = range;
        actions = { block; }
        size = 4096;
    }
    action to_core() { set_port(1); }
    action to_edge() { set_port(2); }
    action to_peering() { set_port(3); }
    action block() { mark_drop(); }
    apply {
        routes.apply();
        acl.apply();
    }
}
"#;

fn main() {
    // Compile for module ID (VLAN) 7. `routes` gets the default flat-table
    // capacity (2^20 prefixes); `acl` is bounded by its declared size.
    let compiled = compile_source(FIREWALL, &CompileOptions::new(7)).expect("firewall compiles");
    let module = ModuleId::new(7);
    let routes_stage = compiled.table("routes").unwrap().stage;
    let acl_stage = compiled.table("acl").unwrap().stage;

    // Stand the module up on a sharded runtime: every shard gets its own
    // replica of both flat tables.
    let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(4));
    runtime.load_module(&compiled.config).expect("module loads");

    // Install the routing table: overlapping prefixes, longest wins.
    let routes = [
        (0x0a00_0000u32, 8u8, "to_edge"), // 10.0.0.0/8
        (0x0a01_0000, 16, "to_core"),     // 10.1.0.0/16
        (0xc0a8_0000, 16, "to_peering"),  // 192.168.0.0/16
    ];
    let rules: Vec<_> = routes
        .iter()
        .map(|&(prefix, len, action)| compiled.lpm_rule("routes", prefix, len, action).unwrap())
        .collect();
    runtime
        .install_rules(module, routes_stage, &rules)
        .expect("routes install");

    // Block the low UDP ports with one priority interval.
    let acl = compiled.range_rule("acl", 0, 1023, 10, "block").unwrap();
    runtime
        .install_rules(module, acl_stage, &[acl])
        .expect("acl install");

    let send = |runtime: &mut ShardedRuntime, dst: [u8; 4], dport: u16| {
        let packet = PacketBuilder::new().with_vlan(7).build_udp(
            [172, 16, 0, 1],
            dst,
            5555,
            dport,
            b"lpm firewall",
        );
        let verdict = runtime.process_batch(vec![packet]).unwrap().remove(0);
        let dst = format!("{}.{}.{}.{}", dst[0], dst[1], dst[2], dst[3]);
        match verdict {
            Verdict::Forwarded { ports, .. } => {
                println!("{dst:>15}:{dport:<5} -> forwarded out port(s) {ports:?}")
            }
            Verdict::Dropped { reason, .. } => {
                println!("{dst:>15}:{dport:<5} -> dropped ({reason:?})")
            }
        }
    };

    println!("--- initial rules ---");
    send(&mut runtime, [10, 0, 0, 5], 8080); // /8        -> to_edge
    send(&mut runtime, [10, 1, 2, 3], 8080); // /16 wins  -> to_core
    send(&mut runtime, [192, 168, 9, 9], 8080); // peering
    send(&mut runtime, [10, 0, 0, 5], 53); // low port    -> blocked
    send(&mut runtime, [8, 8, 8, 8], 8080); // no route   -> passes through

    // A live install: publish a more specific /24 without flushing or
    // quiescing — traffic keeps flowing while the epoch propagates.
    let patch = compiled
        .lpm_rule("routes", 0x0a01_0200, 24, "to_peering") // 10.1.2.0/24
        .unwrap();
    let epoch = runtime
        .install_rules_async(module, routes_stage, &[patch])
        .expect("the table takes the /24");
    runtime.wait_for_epoch(epoch).expect("shards apply");
    assert!(runtime.epoch_error(epoch).is_none());

    println!("--- after live /24 install ---");
    send(&mut runtime, [10, 1, 2, 3], 8080); // /24 now wins -> to_peering
    send(&mut runtime, [10, 1, 9, 9], 8080); // /16 still    -> to_core

    // Price the layouts: the standby replica (the configuration every
    // shard runs) exposes both tables.
    let standby = runtime.standby_replica();
    let lpm = MatchMemoryModel::lpm(standby.lpm_table(module, routes_stage).unwrap());
    let range = MatchMemoryModel::range(standby.range_table(module, acl_stage).unwrap());
    let cam = MatchMemoryModel::cam(lpm.entries + range.entries);
    println!("--- memory model (bytes/entry) ---");
    for row in [cam, lpm, range] {
        println!(
            "{:>6}: {:>4} entries, {:>6} data-path B, {:>5} control B, {:>8.1} B/entry",
            row.kind,
            row.entries,
            row.data_path_bytes,
            row.control_bytes,
            row.bytes_per_entry()
        );
    }
}
