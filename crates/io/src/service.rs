//! [`Service`]: a [`ShardedRuntime`] behind a [`PacketIo`] backend.
//!
//! The service owns three loops folded into one [`poll`](Service::poll)
//! call, so a single thread can run the whole data plane:
//!
//! 1. **rx** — burst-receive from the backend and submit to the runtime;
//! 2. **control** — service a line-oriented TCP control socket
//!    (`127.0.0.1`, loopback only) for live reconfiguration — load/unload
//!    modules, resize the shard set, snapshot metrics — while traffic
//!    flows;
//! 3. **egress** — already wired: the backend's
//!    [`EgressSink`](menshen_runtime::EgressSink) was installed on the
//!    runtime at construction and runs on the worker threads.
//!
//! Shutdown is [`graceful_drain`](Service::graceful_drain): stop rx →
//! discard late arrivals at the I/O edge → flush barrier → conservation
//! audit → report. The returned [`DrainReport`] accounts for every packet
//! that ever crossed the edge: `rx_packets == audit.submitted`, the audit
//! balances, and anything discarded after rx stopped is explicitly counted.
//!
//! # Control protocol
//!
//! One UTF-8 request line per reply. Replies are a single `ok ...` /
//! `err ...` line, except `METRICS`, which streams the Prometheus
//! exposition terminated by a lone `.` line.
//!
//! | request | reply |
//! |---|---|
//! | `PING` | `ok pong` |
//! | `EPOCH` | `ok <current epoch>` |
//! | `STATS` | `ok packets=<n> forwarded=<n> dropped=<n>` |
//! | `LINK` | `ok rx=<n> rx_bytes=<n> rx_errors=<n> rx_drained=<n> tx=<n> tx_bytes=<n> tx_errors=<n>` |
//! | `AUDIT` | `ok balanced=<bool> submitted=<n> processed=<n> in_flight=<n>` |
//! | `METRICS` | Prometheus text, then `.` |
//! | `LOAD <id> <name>` | `ok module <id> epoch <e>` — installs a passthrough module |
//! | `UNLOAD <id>` | `ok module <id> epoch <e>` |
//! | `RESIZE <shards>` | `ok shards <from>-><to> pause_us <n>` |
//! | `DRAIN` | `ok draining` — asks the serve loop to exit |
//! | `QUIT` | `ok bye` — closes this control connection |

use crate::backend::{IoError, LinkStats, PacketIo};
use menshen_core::{MenshenPipeline, MetricsSnapshot, ModuleConfig, ModuleId};
use menshen_runtime::{
    ConservationAudit, RuntimeError, RuntimeOptions, ShardStats, ShardedRuntime,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Errors surfaced by the service runner.
#[derive(Debug)]
pub enum ServiceError {
    /// The packet I/O backend failed.
    Io(IoError),
    /// The control listener failed.
    Socket {
        /// What the service was doing.
        context: &'static str,
        /// The underlying OS error.
        error: std::io::Error,
    },
    /// The runtime reported an error.
    Runtime(RuntimeError),
    /// [`Service::graceful_drain`] was called on a service that already
    /// drained. The first drain stopped rx, audited the books and shut the
    /// runtime down; repeating any of that would double-count, so the
    /// second call gets this typed refusal instead.
    AlreadyDrained,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "packet I/O: {e}"),
            ServiceError::Socket { context, error } => write!(f, "{context}: {error}"),
            ServiceError::Runtime(e) => write!(f, "runtime: {e}"),
            ServiceError::AlreadyDrained => write!(f, "service already drained"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Socket { error, .. } => Some(error),
            ServiceError::Runtime(e) => Some(e),
            ServiceError::AlreadyDrained => None,
        }
    }
}

impl From<IoError> for ServiceError {
    fn from(e: IoError) -> Self {
        ServiceError::Io(e)
    }
}

impl From<RuntimeError> for ServiceError {
    fn from(e: RuntimeError) -> Self {
        ServiceError::Runtime(e)
    }
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards for the runtime.
    pub shards: usize,
    /// Dispatchers (rx queues in the per-NIC-queue model).
    pub dispatchers: usize,
    /// Packets per rx burst / runtime submission.
    pub burst_size: usize,
    /// Whether to open the loopback control listener.
    pub control: bool,
    /// Deadline applied to every runtime control-plane wait
    /// ([`ShardedRuntime::set_control_timeout`]); epochs that fail to
    /// publish within it surface as `RuntimeError::EpochTimeout` instead of
    /// hanging the serve loop.
    pub control_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            dispatchers: 1,
            burst_size: 64,
            control: true,
            control_timeout: Duration::from_secs(10),
        }
    }
}

/// What one [`Service::poll`] call accomplished — lets callers idle
/// (sleep/park) only when nothing moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollOutcome {
    /// Packets received from the backend and submitted to the runtime.
    pub received: usize,
    /// Control requests served.
    pub control_requests: usize,
    /// True once a `DRAIN` control request asked the serve loop to exit.
    pub drain_requested: bool,
}

impl PollOutcome {
    /// True when the poll neither moved packets nor served control traffic.
    pub fn idle(&self) -> bool {
        self.received == 0 && self.control_requests == 0
    }
}

/// The graceful-shutdown accounting: every packet that ever crossed the
/// I/O edge is in exactly one of these buckets.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// The runtime's conservation audit, taken after the final flush.
    pub audit: ConservationAudit,
    /// The backend's final link statistics.
    pub link: LinkStats,
    /// Packets that arrived after rx stopped and were discarded at the edge
    /// (also in `link.rx_drained`).
    pub rx_discarded: u64,
    /// Aggregate shard tallies.
    pub stats: ShardStats,
    /// True when the books balance: the audit is clean *and* the runtime
    /// accepted exactly the packets the link delivered.
    pub balanced: bool,
}

/// Longest control request line accepted, newline included. Every verb and
/// its arguments fit in a fraction of this; a peer that streams more without
/// a newline is disconnected instead of growing the pending line forever.
const MAX_REQUEST_BYTES: usize = 4096;

struct ControlConn {
    reader: BufReader<TcpStream>,
    /// The request line received so far. TCP may deliver a line in several
    /// segments, so this survives polls until its newline arrives.
    line: Vec<u8>,
}

/// A network-attached Menshen service: runtime + backend + control socket.
pub struct Service {
    runtime: ShardedRuntime,
    backend: Box<dyn PacketIo>,
    listener: Option<TcpListener>,
    conns: Vec<ControlConn>,
    rx_buf: Vec<menshen_packet::Packet>,
    burst_size: usize,
    received: u64,
    drain_requested: bool,
    drained: bool,
    num_stages: usize,
}

impl Service {
    /// Stands up a threaded runtime from `template`, installs the backend's
    /// egress sink, and (unless disabled) binds the loopback control
    /// listener.
    pub fn new(
        template: &MenshenPipeline,
        backend: Box<dyn PacketIo>,
        config: ServiceConfig,
    ) -> Result<Service, ServiceError> {
        let mut options =
            RuntimeOptions::threaded(config.shards).with_dispatchers(config.dispatchers);
        options.burst_size = config.burst_size.max(1);
        let mut runtime = ShardedRuntime::from_pipeline(template, options);
        runtime.set_control_timeout(Some(config.control_timeout));
        runtime.set_egress(Some(backend.egress()));
        let listener = if config.control {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|error| {
                ServiceError::Socket {
                    context: "binding control listener",
                    error,
                }
            })?;
            listener
                .set_nonblocking(true)
                .map_err(|error| ServiceError::Socket {
                    context: "setting control listener nonblocking",
                    error,
                })?;
            Some(listener)
        } else {
            None
        };
        Ok(Service {
            runtime,
            backend,
            listener,
            conns: Vec::new(),
            rx_buf: Vec::new(),
            burst_size: config.burst_size.max(1),
            received: 0,
            drain_requested: false,
            drained: false,
            num_stages: template.params().num_stages,
        })
    }

    /// The control listener's address, if one was opened.
    pub fn control_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The underlying runtime — for direct control-plane calls (rule
    /// installs, module loads) from the owning process.
    pub fn runtime_mut(&mut self) -> &mut ShardedRuntime {
        &mut self.runtime
    }

    /// The backend's current link statistics.
    pub fn link_stats(&self) -> LinkStats {
        self.backend.link_stats()
    }

    /// Packets received from the backend and submitted so far.
    pub fn packets_received(&self) -> u64 {
        self.received
    }

    /// True once the backend is a finite source that has emitted everything.
    pub fn source_exhausted(&self) -> bool {
        self.backend.exhausted()
    }

    /// True once a control peer has requested `DRAIN`.
    pub fn drain_requested(&self) -> bool {
        self.drain_requested
    }

    /// One scheduling quantum: service control connections, then move one
    /// rx burst into the runtime. Never blocks.
    pub fn poll(&mut self) -> Result<PollOutcome, ServiceError> {
        let mut outcome = PollOutcome {
            control_requests: self.poll_control()?,
            ..PollOutcome::default()
        };
        self.rx_buf.clear();
        let burst = self.burst_size;
        // The previous batch left with its vector; size the new one once
        // rather than letting `rx_burst` grow it by doubling.
        self.rx_buf.reserve(burst);
        let got = self.backend.rx_burst(&mut self.rx_buf, burst)?;
        if got > 0 {
            let batch = std::mem::take(&mut self.rx_buf);
            self.runtime.submit_owned(batch)?;
            self.received += got as u64;
            outcome.received = got;
        }
        outcome.drain_requested = self.drain_requested;
        Ok(outcome)
    }

    /// Runs [`poll`](Service::poll) until `DRAIN` is requested, the finite
    /// source is exhausted, or `deadline` passes (if given); parks briefly
    /// on idle polls. Returns the number of packets received over the run.
    pub fn serve(&mut self, deadline: Option<Duration>) -> Result<u64, ServiceError> {
        let started = Instant::now();
        let before = self.received;
        loop {
            let outcome = self.poll()?;
            if outcome.drain_requested {
                break;
            }
            if self.backend.exhausted() {
                break;
            }
            if let Some(limit) = deadline {
                if started.elapsed() >= limit {
                    break;
                }
            }
            if outcome.idle() {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(self.received - before)
    }

    /// A combined runtime + I/O metrics snapshot: the PR-7 exposition plus
    /// `menshen_io_*` link counters.
    pub fn metrics_snapshot(&mut self) -> Result<MetricsSnapshot, ServiceError> {
        let mut snapshot = self.runtime.metrics_snapshot()?;
        self.backend
            .link_stats()
            .push_metrics(&mut snapshot, self.backend.label());
        Ok(snapshot)
    }

    /// Graceful shutdown: stop rx → drain the I/O edge → flush barrier →
    /// conservation audit → runtime shutdown → report. The control
    /// listener closes with it. Idempotent in the typed sense: a second
    /// call returns [`ServiceError::AlreadyDrained`] instead of
    /// double-counting against an already-shut runtime.
    pub fn graceful_drain(&mut self) -> Result<DrainReport, ServiceError> {
        if self.drained {
            return Err(ServiceError::AlreadyDrained);
        }
        self.drained = true;
        // 0. Close the control edge: no further reconfiguration can race
        //    the final books.
        self.listener = None;
        self.conns.clear();
        // 1. Stop rx: simply stop calling rx_burst. Anything that arrives
        //    from here on is discarded at the edge, visibly.
        let rx_discarded = self.backend.drain()?;
        // 2. Flush barrier: every packet already submitted reaches a
        //    verdict, and (because egress transmit happens before the
        //    progress board advances) every verdict reached the sink.
        self.runtime.flush();
        // 3. Books: the audit quiesces the pipeline again and balances the
        //    tallies against the per-tenant ledgers.
        let audit = self.runtime.conservation_audit()?;
        let stats = self.runtime.total_stats();
        let link = self.backend.link_stats();
        self.runtime.shutdown();
        let balanced = audit.is_balanced() && audit.submitted == link.rx_packets;
        Ok(DrainReport {
            audit,
            link,
            rx_discarded,
            stats,
            balanced,
        })
    }

    fn poll_control(&mut self) -> Result<usize, ServiceError> {
        let Some(listener) = &self.listener else {
            return Ok(0);
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(ControlConn {
                            reader: BufReader::new(stream),
                            line: Vec::new(),
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(error) => {
                    return Err(ServiceError::Socket {
                        context: "accepting control connection",
                        error,
                    });
                }
            }
        }
        let mut served = 0usize;
        let mut index = 0usize;
        while index < self.conns.len() {
            match self.poll_conn(index) {
                ConnPoll::Kept => index += 1,
                ConnPoll::Closed => {
                    self.conns.swap_remove(index);
                }
                ConnPoll::Served => {
                    served += 1;
                    index += 1;
                }
            }
        }
        Ok(served)
    }

    fn poll_conn(&mut self, index: usize) -> ConnPoll {
        let conn = &mut self.conns[index];
        // Appends to what earlier polls received; reads at most one byte past
        // the bound so an endless line cannot hold the serve loop here.
        let budget = (MAX_REQUEST_BYTES + 1).saturating_sub(conn.line.len()) as u64;
        match (&mut conn.reader)
            .take(budget)
            .read_until(b'\n', &mut conn.line)
        {
            Ok(0) => ConnPoll::Closed, // peer hung up
            Ok(_) if conn.line.len() > MAX_REQUEST_BYTES => ConnPoll::Closed,
            Ok(_) => {
                let line = std::mem::take(&mut conn.line);
                let request = String::from_utf8_lossy(&line);
                let request = request.trim();
                if request.is_empty() {
                    return ConnPoll::Served;
                }
                let (mut reply, close) = self.handle_request(request);
                reply.push('\n');
                let stream = self.conns[index].reader.get_mut();
                if stream.write_all(reply.as_bytes()).is_err() || close {
                    ConnPoll::Closed
                } else {
                    ConnPoll::Served
                }
            }
            // The rest of the line has not arrived yet: keep the prefix.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                ConnPoll::Kept
            }
            Err(_) => ConnPoll::Closed,
        }
    }

    /// Executes one control request; returns (reply, close-connection).
    /// Never panics: runtime errors become `err` replies.
    fn handle_request(&mut self, request: &str) -> (String, bool) {
        let mut parts = request.split_whitespace();
        let verb = parts.next().unwrap_or("").to_ascii_uppercase();
        let reply = match verb.as_str() {
            "PING" => "ok pong".to_string(),
            "EPOCH" => format!("ok {}", self.runtime.current_epoch()),
            "STATS" => {
                let stats = self.runtime.total_stats();
                format!(
                    "ok packets={} forwarded={} dropped={}",
                    stats.packets, stats.forwarded, stats.dropped
                )
            }
            "LINK" => {
                let link = self.backend.link_stats();
                format!(
                    "ok rx={} rx_bytes={} rx_errors={} rx_drained={} tx={} tx_bytes={} tx_errors={}",
                    link.rx_packets,
                    link.rx_bytes,
                    link.rx_errors,
                    link.rx_drained,
                    link.tx_packets,
                    link.tx_bytes,
                    link.tx_errors
                )
            }
            "AUDIT" => match self.runtime.conservation_audit() {
                Ok(audit) => format!(
                    "ok balanced={} submitted={} processed={} in_flight={}",
                    audit.is_balanced(),
                    audit.submitted,
                    audit.processed,
                    audit.in_flight
                ),
                Err(e) => format!("err {e}"),
            },
            "METRICS" => match self.metrics_snapshot() {
                Ok(snapshot) => {
                    let mut text = snapshot.to_prometheus();
                    if !text.ends_with('\n') {
                        text.push('\n');
                    }
                    text.push('.');
                    text
                }
                Err(e) => format!("err {e}"),
            },
            "LOAD" => match (parts.next().map(str::parse::<u16>), parts.next()) {
                (Some(Ok(id)), name) => {
                    let name = name.unwrap_or("tenant").to_string();
                    let config = ModuleConfig::empty(ModuleId::new(id), name, self.num_stages);
                    match self.runtime.load_module(&config) {
                        Ok(()) => {
                            format!("ok module {id} epoch {}", self.runtime.current_epoch())
                        }
                        Err(e) => format!("err {e}"),
                    }
                }
                _ => "err usage: LOAD <module-id> [name]".to_string(),
            },
            "UNLOAD" => match parts.next().map(str::parse::<u16>) {
                Some(Ok(id)) => match self.runtime.unload_module(ModuleId::new(id)) {
                    Ok(()) => format!("ok module {id} epoch {}", self.runtime.current_epoch()),
                    Err(e) => format!("err {e}"),
                },
                _ => "err usage: UNLOAD <module-id>".to_string(),
            },
            "RESIZE" => match parts.next().map(str::parse::<usize>) {
                Some(Ok(shards)) if shards >= 1 => match self.runtime.resize(shards) {
                    Ok(report) => format!(
                        "ok shards {}->{} pause_us {}",
                        report.from_shards,
                        report.to_shards,
                        report.pause.as_micros()
                    ),
                    Err(e) => format!("err {e}"),
                },
                _ => "err usage: RESIZE <shards>".to_string(),
            },
            "DRAIN" => {
                self.drain_requested = true;
                "ok draining".to_string()
            }
            "QUIT" => return ("ok bye".to_string(), true),
            _ => format!("err unknown request: {verb}"),
        };
        (reply, false)
    }
}

enum ConnPoll {
    Kept,
    Served,
    Closed,
}

/// Client-side helper: connects to a service's control socket (retrying
/// until `timeout`, so a just-spawned service has time to bind), sends one
/// request line, and returns the reply — all lines for `METRICS` (the `.`
/// terminator stripped), one line otherwise.
pub fn control_request(
    addr: SocketAddr,
    request: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let deadline = Instant::now() + timeout;
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    // One write: a request split into two segments is legal TCP, but there
    // is no reason to provoke it.
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{request}\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "control connection closed before reply",
        ));
    }
    if request.trim().eq_ignore_ascii_case("METRICS") && !line.starts_with("err") {
        let mut body = String::new();
        loop {
            let trimmed = line.trim_end();
            if trimmed == "." {
                break;
            }
            body.push_str(trimmed);
            body.push('\n');
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "metrics stream ended without terminator",
                ));
            }
        }
        return Ok(body);
    }
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inprocess::InProcessIo;
    use menshen_packet::PacketBuilder;
    use menshen_rmt::TABLE5;

    fn template() -> MenshenPipeline {
        MenshenPipeline::new(TABLE5)
    }

    fn frames(vlan: u16, n: usize) -> Vec<menshen_packet::Packet> {
        (0..n)
            .map(|i| {
                let seq = (i as u32).to_be_bytes();
                PacketBuilder::udp_data(vlan, [10, 0, 0, 1], [10, 0, 0, 2], 7, 80, &seq)
            })
            .collect()
    }

    #[test]
    fn serve_drain_balances_the_books() {
        let (io, handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        handle.inject(frames(3, 200));
        while service.packets_received() < 200 {
            service.poll().unwrap();
        }
        let report = service.graceful_drain().unwrap();
        assert!(report.balanced, "unbalanced drain: {report:?}");
        assert_eq!(report.audit.submitted, 200);
        assert_eq!(report.link.rx_packets, 200);
        assert_eq!(report.link.tx_packets, 200, "every verdict echoed");
        assert_eq!(report.rx_discarded, 0);
        assert_eq!(handle.echoes().len(), 200);
    }

    #[test]
    fn late_arrivals_are_discarded_and_counted() {
        let (io, handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        handle.inject(frames(3, 50));
        while service.packets_received() < 50 {
            service.poll().unwrap();
        }
        // Arrives after rx stops: must be discarded at the edge, on the
        // books as rx_drained, and absent from the audit.
        handle.inject(frames(3, 7));
        let report = service.graceful_drain().unwrap();
        assert!(report.balanced);
        assert_eq!(report.audit.submitted, 50);
        assert_eq!(report.rx_discarded, 7);
        assert_eq!(report.link.rx_drained, 7);
    }

    #[test]
    fn control_socket_serves_reconfiguration_under_traffic() {
        let (io, handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        let addr = service.control_addr().expect("control listener");
        let client = std::thread::spawn(move || {
            let t = Duration::from_secs(10);
            [
                "PING",
                "LOAD 9 tenant-nine",
                "RESIZE 3",
                "STATS",
                "LINK",
                "AUDIT",
                "UNLOAD 9",
                "BOGUS",
                "DRAIN",
            ]
            .iter()
            .map(|req| control_request(addr, req, t).unwrap())
            .collect::<Vec<_>>()
        });
        // Keep traffic flowing while the client reconfigures.
        let mut injected = 0usize;
        while !service.drain_requested() {
            if injected < 10_000 {
                handle.inject(frames(3, 32));
                injected += 32;
            }
            service.poll().unwrap();
        }
        let replies = client.join().unwrap();
        assert_eq!(replies[0], "ok pong");
        assert_eq!(
            replies[1].split(' ').take(3).collect::<Vec<_>>(),
            ["ok", "module", "9"]
        );
        assert!(replies[2].starts_with("ok shards 2->3"), "{}", replies[2]);
        assert!(replies[3].starts_with("ok packets="), "{}", replies[3]);
        assert!(replies[4].starts_with("ok rx="), "{}", replies[4]);
        assert!(replies[5].starts_with("ok balanced=true"), "{}", replies[5]);
        assert!(replies[6].starts_with("ok module 9"), "{}", replies[6]);
        assert!(replies[7].starts_with("err unknown"), "{}", replies[7]);
        assert_eq!(replies[8], "ok draining");

        let report = service.graceful_drain().unwrap();
        assert!(report.balanced, "reconfig under traffic lost packets");
    }

    #[test]
    fn metrics_exposition_covers_the_io_edge() {
        let (io, handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        let addr = service.control_addr().unwrap();
        handle.inject(frames(3, 64));
        while service.packets_received() < 64 {
            service.poll().unwrap();
        }
        let client = std::thread::spawn(move || {
            control_request(addr, "METRICS", Duration::from_secs(10)).unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !client.is_finished() {
            assert!(Instant::now() < deadline, "metrics request hung");
            service.poll().unwrap();
        }
        let body = client.join().unwrap();
        assert!(
            body.contains("menshen_io_rx_packets_total{backend=\"inprocess\"} 64"),
            "io series missing from exposition:\n{body}"
        );
        assert!(
            body.contains("menshen_io_tx_packets_total"),
            "tx series missing:\n{body}"
        );
        service.graceful_drain().unwrap();
    }

    #[test]
    fn second_drain_is_a_typed_refusal() {
        let (io, handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        handle.inject(frames(3, 16));
        while service.packets_received() < 16 {
            service.poll().unwrap();
        }
        let report = service.graceful_drain().unwrap();
        assert!(report.balanced);
        match service.graceful_drain() {
            Err(ServiceError::AlreadyDrained) => {}
            other => panic!("second drain must refuse, got {other:?}"),
        }
    }

    /// Polls `service` until `done` holds, failing the test after 10 s.
    fn poll_until(service: &mut Service, what: &str, mut done: impl FnMut(&Service) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(service) {
            assert!(Instant::now() < deadline, "{what}");
            service.poll().unwrap();
        }
    }

    #[test]
    fn a_request_split_across_tcp_segments_is_served_whole() {
        let (io, _handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        let mut client = TcpStream::connect(service.control_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // First segment: the service must have read it (and hit WouldBlock
        // behind it) before the second is written.
        client.write_all(b"EP").unwrap();
        poll_until(&mut service, "prefix never arrived", |s| {
            s.conns.first().is_some_and(|c| c.line == b"EP")
        });
        client.write_all(b"OCH\n").unwrap();
        poll_until(&mut service, "split request never completed", |s| {
            s.conns.first().is_some_and(|c| c.line.is_empty())
        });
        let mut reply = String::new();
        BufReader::new(&client).read_line(&mut reply).unwrap();
        assert_eq!(reply, format!("ok {}\n", service.runtime.current_epoch()));
        service.graceful_drain().unwrap();
    }

    #[test]
    fn an_endless_request_line_closes_the_connection() {
        let (io, _handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        let mut client = TcpStream::connect(service.control_addr().unwrap()).unwrap();
        poll_until(&mut service, "connection never accepted", |s| {
            !s.conns.is_empty()
        });
        client.write_all(&[b'A'; MAX_REQUEST_BYTES + 1]).unwrap();
        poll_until(&mut service, "oversized line kept the connection", |s| {
            s.conns.is_empty()
        });
        service.graceful_drain().unwrap();
    }

    #[test]
    fn epoch_and_quit_requests() {
        let (io, _handle) = InProcessIo::new();
        let mut service =
            Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
        let addr = service.control_addr().unwrap();
        let client = std::thread::spawn(move || {
            let t = Duration::from_secs(10);
            let epoch = control_request(addr, "EPOCH", t).unwrap();
            let bye = control_request(addr, "QUIT", t).unwrap();
            (epoch, bye)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !client.is_finished() {
            assert!(Instant::now() < deadline, "control request hung");
            service.poll().unwrap();
        }
        let (epoch, bye) = client.join().unwrap();
        assert!(epoch.starts_with("ok "), "{epoch}");
        assert_eq!(bye, "ok bye");
        service.graceful_drain().unwrap();
    }
}
