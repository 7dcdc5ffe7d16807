//! The one adapter between the benchmark and the program under test.
//!
//! Every call the benchmark makes into `crates/{packet,rmt,core,compiler,
//! runtime,io}` is in this file; README.md lists the public items it relies
//! on. A later change that renames or removes one of them is a benchmark
//! change and needs an issue of its own. Nothing ROADMAP §2 schedules for
//! deletion is used: no `MenshenPipeline::process`, no `set_cam_scan_mode`,
//! no cargo features, no `with_pinned`, no TCP control socket, and runtime
//! options only through `threaded`/`deterministic` + `with_*`.

use crate::gen::{FrameSpec, Table, TenantSpec, INGRESS_DST_PORT, PAYLOAD_OFFSET};
use menshen_compiler::{compile_source, CompileOptions, FieldRef};
use menshen_core::{
    DigestSpec, LpmMatchRule, MatchRule, MenshenPipeline, ModuleConfig, ModuleId, ModuleState,
    StageModuleConfig, StateDigest, TableRule, Verdict,
};
use menshen_io::{InProcessHandle, InProcessIo, PacketIo, Service, ServiceConfig, UdpSocketIo};
use menshen_packet::{Packet, PacketBuilder};
use menshen_rmt::action::{AluInstruction, VliwAction};
use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParseAction, ParserEntry};
use menshen_rmt::lpm::LpmTable;
use menshen_rmt::match_table::{ExactMatchTable, LookupKey, MatchEntry, MatchKind};
use menshen_rmt::params::PipelineParams;
use menshen_rmt::phv::ContainerRef as C;
use menshen_rmt::TABLE5;
use menshen_runtime::{
    bounded_ring, ConservationAudit, Consumer, Producer, RuntimeOptions, ShardedRuntime, Steerer,
    SteeringMode,
};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

pub use menshen_io::{decode_echo, EchoRecord, ECHO_LEN};
pub use menshen_runtime::EgressSink;

/// An owned Ethernet frame.
pub type Frame = Packet;
/// A compiled tenant, ready to load.
pub type Tenant = ModuleConfig;
/// The pipeline's answer for one frame.
pub type Outcome = Verdict;

/// Byte offset of the UDP destination port in a VLAN-tagged IPv4/UDP frame.
const UDP_DST_PORT_OFFSET: usize = 40;
/// Byte offset of the IPv4 destination address.
const IPV4_DST_OFFSET: u8 = 34;
/// Byte offset of the flat tables' 4-byte key within the 24-byte lookup key.
const LPM_KEY_OFFSET: usize = 12;
/// Stateful word the storing tenants overwrite.
const STORE_WORD: u16 = 2;

fn params() -> PipelineParams {
    TABLE5.with_table_depth(2048)
}

fn dst_ip_key(dst_ip: u32) -> LookupKey {
    LookupKey::from_slots(
        [
            (0, 6),
            (0, 6),
            (u64::from(dst_ip), 4),
            (0, 4),
            (0, 2),
            (0, 2),
        ],
        false,
    )
}

// ---------------------------------------------------------------------------
// packet
// ---------------------------------------------------------------------------

/// `PacketBuilder::udp_data`: the frame a [`FrameSpec`] describes, carrying
/// `seq` in its first four payload bytes.
pub fn build_frame(spec: &FrameSpec, seq: u32) -> Frame {
    let mut payload = vec![0u8; spec.payload_len];
    payload[..4].copy_from_slice(&seq.to_be_bytes());
    PacketBuilder::udp_data(
        spec.vlan,
        spec.src_ip,
        spec.dst_ip,
        spec.src_port,
        INGRESS_DST_PORT,
        &payload,
    )
}

/// The frames of a pool, numbered by position.
pub fn build_frames(specs: &[FrameSpec]) -> Vec<Frame> {
    (0..)
        .zip(specs)
        .map(|(seq, spec)| build_frame(spec, seq))
        .collect()
}

/// `Packet::from_bytes`: what an rx path does with received bytes.
pub fn frame_from_bytes(bytes: Vec<u8>) -> Frame {
    Packet::from_bytes(bytes)
}

/// Overwrites the sequence number of a (cloned) frame.
pub fn set_seq(frame: &mut Frame, seq: u32) {
    frame.bytes_mut()[PAYLOAD_OFFSET..PAYLOAD_OFFSET + 4].copy_from_slice(&seq.to_be_bytes());
}

pub fn seq_of(frame: &Frame) -> u32 {
    let bytes = &frame.bytes()[PAYLOAD_OFFSET..PAYLOAD_OFFSET + 4];
    u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// What the benchmark compares of an [`Outcome`]: forwarded or not, the
/// module it was attributed to, and the UDP destination port it left with
/// (0 when dropped) — the same three things a verdict echo carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    pub forwarded: bool,
    pub module: u16,
    pub port: u16,
}

pub fn summarise(outcome: &Outcome) -> Summary {
    match outcome {
        Verdict::Forwarded {
            packet, module_id, ..
        } => Summary {
            forwarded: true,
            module: *module_id,
            port: packet
                .read_be(UDP_DST_PORT_OFFSET, 2)
                .map_or(0, |port| port as u16),
        },
        Verdict::Dropped { module_id, .. } => Summary {
            forwarded: false,
            module: module_id.unwrap_or(0),
            port: 0,
        },
    }
}

impl From<&EchoRecord> for Summary {
    fn from(echo: &EchoRecord) -> Summary {
        Summary {
            forwarded: echo.forwarded,
            module: echo.module_id,
            port: echo.detail,
        }
    }
}

// ---------------------------------------------------------------------------
// tenants (core + rmt configuration types, compiler)
// ---------------------------------------------------------------------------

/// The hand-assembled tenant of a [`TenantSpec`]: parses the destination IP
/// and UDP destination port, matches the IP in stage 0, rewrites the port.
/// LPM tenants are loaded empty; their rules go in through
/// [`Lone::install_lpm_rules`].
pub fn tenant(spec: &TenantSpec) -> Tenant {
    let mut config = ModuleConfig::empty(
        ModuleId::new(spec.id),
        format!("tenant-{}", spec.id),
        TABLE5.num_stages,
    );
    config.parser = ParserEntry::new(vec![
        ParseAction::new(IPV4_DST_OFFSET, C::h4(1)).expect("offset fits"),
        ParseAction::new(UDP_DST_PORT_OFFSET as u8, C::h2(0)).expect("offset fits"),
    ])
    .expect("two parse actions");
    config.deparser = ParserEntry::new(vec![
        ParseAction::new(UDP_DST_PORT_OFFSET as u8, C::h2(0)).expect("offset fits")
    ])
    .expect("one parse action");
    let mut stage = StageModuleConfig {
        key_extract: Some(KeyExtractEntry {
            slots_4b: [1, 0],
            ..Default::default()
        }),
        key_mask: Some(KeyMask::for_slots(
            [false, false, true, false, false, false],
            false,
        )),
        ..Default::default()
    };
    match &spec.table {
        Table::Exact { dst_ips, port } => {
            let mut action = VliwAction::nop()
                .with(C::h2(0), AluInstruction::set(*port))
                .with(C::h4(7), AluInstruction::loadd(0));
            if spec.stores {
                action = action.with(C::h4(3), AluInstruction::store(C::h4(1), STORE_WORD));
            }
            stage.rules = dst_ips
                .iter()
                .map(|&dst_ip| MatchRule {
                    key: dst_ip_key(dst_ip),
                    action: action.clone(),
                })
                .collect();
            stage.stateful_words = 16;
        }
        Table::Lpm { prefixes, ports } => {
            stage.match_kind = MatchKind::Lpm {
                key_offset: LPM_KEY_OFFSET as u8,
            };
            stage.table_actions = ports
                .iter()
                .map(|&port| VliwAction::nop().with(C::h2(0), AluInstruction::set(port)))
                .collect();
            stage.table_capacity = prefixes.len();
        }
    }
    config.stages[0] = stage;
    config
}

/// DSL source of the tenant `reconfig_churn` loads, updates and unloads: the
/// same behaviour as [`tenant`], through the compiler.
pub const CHURN_TENANT_SOURCE: &str = r#"
module churn {
    parser { extract ethernet; extract vlan; extract ipv4; extract udp; }
    table flows { key = { ipv4.dst_addr; } actions = { rewrite; } size = 150; }
    action rewrite() { udp.dst_port = 9008; }
    apply { flows.apply(); }
}
"#;

/// `compile_source` + `CompiledModule::rule`: compiles
/// [`CHURN_TENANT_SOURCE`] for the spec's id and adds its rules.
pub fn compile_churn_tenant(spec: &TenantSpec) -> Tenant {
    let options = CompileOptions::new(spec.id).with_params(params());
    let compiled = compile_source(CHURN_TENANT_SOURCE, &options).expect("churn tenant compiles");
    let Table::Exact { dst_ips, .. } = &spec.table else {
        panic!("the churn tenant is exact-match");
    };
    let field = FieldRef::new("ipv4", "dst_addr");
    let stage = compiled.table("flows").expect("declared table").stage;
    let mut config = compiled.config.clone();
    for &dst_ip in dst_ips {
        let rule = compiled
            .rule("flows", &[(&field, u64::from(dst_ip))], "rewrite")
            .expect("declared table and action");
        config.stages[stage].rules.push(rule);
    }
    config
}

fn lpm_rules(prefixes: &[u32]) -> Vec<TableRule> {
    prefixes
        .iter()
        .enumerate()
        .map(|(index, &prefix)| {
            TableRule::Lpm(LpmMatchRule {
                prefix,
                prefix_len: 24,
                action: (index % 2) as u16,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// rmt: the bare match tables
// ---------------------------------------------------------------------------

/// `ExactMatchTable` holding every exact rule of `tenants`, as the CAM of
/// stage 0 does.
pub struct ExactTable(ExactMatchTable);

impl ExactTable {
    pub fn new(tenants: &[TenantSpec]) -> ExactTable {
        let mut table = ExactMatchTable::new(params().cam_depth);
        let mut index = 0;
        for tenant in tenants {
            if let Table::Exact { dst_ips, .. } = &tenant.table {
                for &dst_ip in dst_ips {
                    let entry = MatchEntry {
                        key: dst_ip_key(dst_ip),
                        module_id: tenant.id,
                        action_index: index as u16,
                    };
                    table.install(index, entry).expect("CAM has room");
                    index += 1;
                }
            }
        }
        ExactTable(table)
    }

    /// The lookup key of a frame's destination IP.
    pub fn key(spec: &FrameSpec) -> (LookupKey, u16) {
        (dst_ip_key(u32::from_be_bytes(spec.dst_ip)), spec.vlan)
    }

    pub fn lookup(&self, key: &(LookupKey, u16)) -> Option<usize> {
        self.0.lookup(&key.0, key.1)
    }
}

/// A bare `LpmTable`.
pub struct Lpm(LpmTable);

impl Lpm {
    pub fn new(capacity: usize) -> Lpm {
        Lpm(LpmTable::new(LPM_KEY_OFFSET, capacity))
    }

    pub fn insert(&mut self, prefix24: u32, action: u32) {
        self.0
            .insert(prefix24, 24, action)
            .expect("LPM table has room");
    }

    pub fn lookup(&self, value: u32) -> Option<u32> {
        self.0.lookup(value)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

// ---------------------------------------------------------------------------
// core: one pipeline
// ---------------------------------------------------------------------------

/// One `MenshenPipeline` — the reference every workload is checked against,
/// and the system under test of the `lone_*` workloads.
pub struct Lone(MenshenPipeline);

impl Lone {
    pub fn new() -> Lone {
        Lone(MenshenPipeline::new(params()))
    }

    pub fn load(&mut self, tenant: &Tenant) {
        self.0.load_module(tenant).expect("tenant loads");
    }

    pub fn update(&mut self, tenant: &Tenant) {
        self.0.update_module(tenant).expect("tenant updates");
    }

    pub fn unload(&mut self, id: u16) {
        self.0
            .unload_module(ModuleId::new(id))
            .expect("tenant unloads");
    }

    /// `install_rules`: streams a spec's /24 prefixes into its stage-0 table.
    pub fn install_lpm_rules(&mut self, spec: &TenantSpec) -> usize {
        let Table::Lpm { prefixes, .. } = &spec.table else {
            return 0;
        };
        self.0
            .install_rules(ModuleId::new(spec.id), 0, &lpm_rules(prefixes))
            .expect("rules install")
    }

    /// `process_batch_into`: one burst, verdicts into `out` (cleared first).
    #[inline]
    pub fn process(&mut self, burst: &[Frame], out: &mut Vec<Outcome>) {
        self.0.process_batch_into(burst, out);
    }

    /// `config_replica`: a configured copy with zeroed dynamic state.
    pub fn replica(&self) -> Lone {
        Lone(self.0.config_replica())
    }

    /// Packets in / forwarded / dropped the pipeline itself counted for a
    /// tenant.
    pub fn counters(&self, id: u16) -> Option<(u64, u64, u64)> {
        self.0
            .module_counters(ModuleId::new(id))
            .map(|c| (c.packets_in, c.packets_out, c.packets_dropped))
    }

    /// A tenant's stateful words, per stage.
    pub fn state_words(&self, id: u16) -> Vec<Vec<u64>> {
        self.0
            .export_module_state(ModuleId::new(id))
            .map_or_else(Vec::new, |state| state.stages)
    }

    /// `import_module_state` on a pipeline whose tenant has seen no traffic:
    /// sets the tenant's stateful words.
    pub fn import_state_words(&mut self, id: u16, stages: &[Vec<u64>]) {
        let state = ModuleState {
            module_id: id,
            counters: Default::default(),
            stages: stages.to_vec(),
        };
        self.0
            .import_module_state(&state)
            .expect("same tenant shape");
    }

    /// The digest recipe of a replicated tenant (`module_digest_spec`).
    pub fn digest_spec(&self, id: u16) -> Option<Digester> {
        self.0.module_digest_spec(ModuleId::new(id)).map(Digester)
    }

    /// `apply_state_digest`: replays another shard's packet on this replica.
    #[inline]
    pub fn apply_digest(&mut self, digest: &StateDigest) {
        self.0.apply_state_digest(digest);
    }
}

/// `DigestSpec::extract`.
pub struct Digester(DigestSpec);

impl Digester {
    #[inline]
    pub fn extract(&self, frame: &Frame) -> StateDigest {
        self.0.extract(frame, 0)
    }
}

// ---------------------------------------------------------------------------
// runtime
// ---------------------------------------------------------------------------

/// Per-tenant totals the runtime reports: module id → (in, forwarded,
/// dropped), sorted by id.
pub type TenantTallies = Vec<(u16, (u64, u64, u64))>;

/// A `ShardedRuntime` under 5-tuple steering with inline dispatch.
pub struct Sharded(ShardedRuntime);

impl Sharded {
    /// `RuntimeOptions::threaded(shards)`: one thread per shard behind SPSC
    /// rings, the submitting thread steers.
    pub fn threaded(template: &Lone, shards: usize) -> Sharded {
        let options = RuntimeOptions::threaded(shards)
            .with_steering(SteeringMode::FiveTuple)
            .with_dispatchers(0);
        Sharded(ShardedRuntime::from_pipeline(&template.0, options))
    }

    /// `RuntimeOptions::deterministic(shards)`: steering, scatter and the
    /// shard replicas on the calling thread, no rings.
    pub fn deterministic(template: &Lone, shards: usize) -> Sharded {
        let options = RuntimeOptions::deterministic(shards)
            .with_steering(SteeringMode::FiveTuple)
            .with_dispatchers(0);
        Sharded(ShardedRuntime::from_pipeline(&template.0, options))
    }

    /// `submit_owned` (threaded mode).
    #[inline]
    pub fn submit(&mut self, frames: Vec<Frame>) {
        self.0.submit_owned(frames).expect("shards are up");
    }

    #[inline]
    pub fn flush(&mut self) {
        self.0.flush();
    }

    /// `process_batch_into` (deterministic mode).
    #[inline]
    pub fn process(&mut self, frames: Vec<Frame>, out: &mut Vec<Outcome>) {
        self.0
            .process_batch_into(frames, out)
            .expect("deterministic mode");
    }

    pub fn load(&mut self, tenant: &Tenant) {
        self.0.load_module(tenant).expect("tenant loads");
    }

    pub fn update(&mut self, tenant: &Tenant) {
        self.0.update_module(tenant).expect("tenant updates");
    }

    pub fn unload(&mut self, id: u16) {
        self.0
            .unload_module(ModuleId::new(id))
            .expect("tenant unloads");
    }

    pub fn set_egress(&mut self, sink: Option<Arc<dyn EgressSink>>) {
        self.0.set_egress(sink);
    }

    pub fn audit(&mut self) -> ConservationAudit {
        self.0.conservation_audit().expect("shards are up")
    }

    /// `aggregated_counters`.
    pub fn tenant_tallies(&mut self) -> TenantTallies {
        let mut tallies: TenantTallies = self
            .0
            .aggregated_counters()
            .expect("shards are up")
            .into_iter()
            .map(|(id, c)| (id, (c.packets_in, c.packets_out, c.packets_dropped)))
            .collect();
        tallies.sort_unstable();
        tallies
    }

    /// `shard_stats`: packets each shard has processed.
    pub fn shard_packets(&self) -> Vec<u64> {
        self.0.shard_stats().iter().map(|s| s.packets).collect()
    }

    /// `ring_depths`: the deepest any shard's input ring has been, in bursts.
    pub fn ring_depth_hwm(&mut self) -> u64 {
        self.0
            .ring_depths()
            .expect("shards are up")
            .iter()
            .map(|depth| depth.high_watermark)
            .max()
            .unwrap_or(0)
    }

    /// `aggregated_latency`: the cumulative histogram of the sojourn times the
    /// shards have recorded.
    pub fn sojourn(&mut self) -> Sojourn {
        Sojourn(
            self.0
                .aggregated_latency()
                .expect("shards are up")
                .packet_ns,
        )
    }

    /// `digest_totals`: (digests, wire bytes) broadcast so far.
    pub fn digest_totals(&self) -> (u64, u64) {
        self.0.digest_totals()
    }

    pub fn replicated_tenants(&self) -> Vec<u16> {
        self.0.replicated_modules()
    }

    /// `export_shard_state`: the stateful words one shard's replica holds
    /// for a tenant, per stage.
    pub fn shard_state_words(&mut self, shard: usize, id: u16) -> Vec<Vec<u64>> {
        self.0
            .export_shard_state(shard, &[ModuleId::new(id)])
            .expect("shards are up")
            .pop()
            .map_or_else(Vec::new, |state| state.stages)
    }

    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

/// A cumulative sojourn histogram (see [`Sharded::sojourn`]).
pub struct Sojourn(menshen_core::LatencyHistogram);

impl Sojourn {
    /// (p50, p99) in ns of what was recorded since `earlier` was taken.
    pub fn quantiles_since(&self, earlier: &Sojourn) -> (u64, u64) {
        let delta = self
            .0
            .subtracting(&earlier.0)
            .unwrap_or_else(|_| self.0.clone());
        (delta.quantile(0.5), delta.quantile(0.99))
    }
}

/// `Steerer::shard_for` under 5-tuple steering.
pub struct Steer(Steerer);

impl Steer {
    pub fn new(shards: usize) -> Steer {
        Steer(Steerer::new(SteeringMode::FiveTuple, shards))
    }

    #[inline]
    pub fn shard_for(&self, frame: &Frame) -> usize {
        self.0.shard_for(frame)
    }
}

/// The SPSC ring a dispatcher and a shard share, carrying bursts.
pub fn burst_ring(capacity: usize) -> (Producer<Vec<Frame>>, Consumer<Vec<Frame>>) {
    bounded_ring(capacity)
}

// ---------------------------------------------------------------------------
// io
// ---------------------------------------------------------------------------

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        dispatchers: 0,
        burst_size: 64,
        // The TCP control socket has a known framing hang; the benchmark
        // never opens it.
        control: false,
        ..ServiceConfig::default()
    }
}

/// What `graceful_drain` reports.
pub struct Drained {
    pub balanced: bool,
    pub rx_discarded: u64,
    pub tx_errors: u64,
    pub shed: u64,
    pub lost: u64,
}

/// An `io::Service` (one shard, inline dispatch) over `UdpSocketIo` on the
/// loopback interface.
pub struct UdpService {
    service: Service,
    addr: SocketAddr,
}

impl UdpService {
    pub fn bind(template: &Lone) -> UdpService {
        let io = UdpSocketIo::bind(IpAddr::V4(Ipv4Addr::LOCALHOST), 1).expect("loopback binds");
        let addr = io.local_addrs()[0];
        let service =
            Service::new(&template.0, Box::new(io), service_config()).expect("service starts");
        UdpService { service, addr }
    }

    /// Where a generator sends encapsulated frames.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `Service::serve` for at most `slice`; returns packets received.
    pub fn serve(&mut self, slice: Duration) -> u64 {
        self.service.serve(Some(slice)).expect("service serves")
    }

    /// `Service::poll`; returns packets received.
    #[inline]
    pub fn poll(&mut self) -> usize {
        self.service.poll().expect("service polls").received
    }

    pub fn flush(&mut self) {
        self.service.runtime_mut().flush();
    }

    pub fn drain(&mut self) -> Drained {
        let report = self.service.graceful_drain().expect("first drain");
        Drained {
            balanced: report.balanced,
            rx_discarded: report.rx_discarded,
            tx_errors: report.link.tx_errors,
            shed: report.audit.shed,
            lost: report.audit.lost_to_failure,
        }
    }
}

/// The same service over `InProcessIo`: the serve loop without syscalls.
pub struct InProcessService {
    service: Service,
    handle: InProcessHandle,
}

impl InProcessService {
    pub fn new(template: &Lone) -> InProcessService {
        let (io, handle) = InProcessIo::new();
        let service =
            Service::new(&template.0, Box::new(io), service_config()).expect("service starts");
        InProcessService { service, handle }
    }

    pub fn inject(&self, frames: Vec<Frame>) {
        self.handle.inject(frames);
    }

    #[inline]
    pub fn poll(&mut self) -> usize {
        self.service.poll().expect("service polls").received
    }

    pub fn flush(&mut self) {
        self.service.runtime_mut().flush();
    }

    /// Echoes recorded so far, cleared.
    pub fn take_echoes(&self) -> Vec<EchoRecord> {
        self.handle.take_echoes()
    }

    pub fn drain(&mut self) -> bool {
        self.service.graceful_drain().expect("first drain").balanced
    }
}

/// A bare `UdpSocketIo` with its egress sink, for the socket probes.
pub struct UdpPort {
    io: UdpSocketIo,
    egress: Arc<dyn EgressSink>,
    addr: SocketAddr,
}

impl UdpPort {
    pub fn bind() -> UdpPort {
        let io = UdpSocketIo::bind(IpAddr::V4(Ipv4Addr::LOCALHOST), 1).expect("loopback binds");
        let addr = io.local_addrs()[0];
        let egress = io.egress();
        UdpPort { io, egress, addr }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `rx_burst`: appends up to `max` received frames.
    #[inline]
    pub fn rx_burst(&mut self, out: &mut Vec<Frame>, max: usize) -> usize {
        self.io.rx_burst(out, max).expect("socket receives")
    }

    /// `egress().transmit`: one verdict echo to the learned peer.
    #[inline]
    pub fn transmit(&self, frame: &Frame, outcome: &Outcome) {
        self.egress.transmit(frame, outcome);
    }
}

/// `encode_echo`.
#[inline]
pub fn encode_echo(frame: &Frame, outcome: &Outcome) -> [u8; ECHO_LEN] {
    menshen_io::encode_echo(frame, outcome)
}
