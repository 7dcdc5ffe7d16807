//! [`UdpSocketIo`]: a real `std::net` data plane.
//!
//! The model is one NIC RX queue per dispatcher: the backend binds one UDP
//! socket per queue (all nonblocking), and each received datagram's payload
//! is treated as one encapsulated Ethernet frame — the loopback testbed's
//! stand-in for DMA-ing frames off a NIC queue. `rx_burst` round-robins the
//! queues, stamping every packet's
//! [`ingress_port`](menshen_packet::Packet::ingress_port) with its queue
//! index; the service's dispatcher spray then takes over exactly as it does
//! for in-process traffic.
//!
//! On the way out, [`UdpEgress`] (the backend's [`EgressSink`], called on
//! the worker threads) sends one fixed-size verdict echo ([`crate::echo`])
//! per processed packet back through the socket of the queue the packet
//! arrived on, to the **learned peer** — the most recent source address
//! seen on that queue, the UDP analogue of answering on the interface a
//! frame came from. Verdict-driven forwarding of the rewritten frame
//! itself is deliberately not done: the testbed checks verdicts, not
//! next-hop delivery.

use crate::backend::{IoError, LinkCounters, LinkStats, PacketIo};
use crate::echo::{encode_echo, ECHO_LEN};
use menshen_core::Verdict;
use menshen_packet::Packet;
use menshen_runtime::EgressSink;
use std::net::{IpAddr, SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};

/// Receive buffer size: comfortably above the largest legal frame
/// (`menshen_packet::MAX_FRAME_LEN` = 1518) plus slack for oversized
/// datagrams, which are counted as rx errors rather than truncated into
/// garbage frames.
const RECV_BUF_LEN: usize = 4096;

/// Upper bound on datagrams slurped per drain call, so a peer that keeps
/// transmitting cannot wedge shutdown.
const DRAIN_LIMIT: u64 = 1_000_000;

struct UdpQueue {
    socket: UdpSocket,
    local: SocketAddr,
    /// Most recent source address seen on this queue — where echoes go.
    peer: Mutex<Option<SocketAddr>>,
}

struct UdpState {
    queues: Vec<UdpQueue>,
    counters: LinkCounters,
}

/// The UDP socket backend. One socket per rx queue; see the module docs.
pub struct UdpSocketIo {
    state: Arc<UdpState>,
    next_queue: usize,
    buf: Vec<u8>,
}

/// The UDP backend's [`EgressSink`]: echoes one verdict datagram per
/// processed packet to the learned peer of the packet's ingress queue.
pub struct UdpEgress {
    state: Arc<UdpState>,
}

impl UdpSocketIo {
    /// Binds `queues` nonblocking UDP sockets on `ip` (ephemeral ports).
    /// Pass the service's dispatcher count to get the one-socket-per-
    /// dispatcher shape.
    pub fn bind(ip: IpAddr, queues: usize) -> Result<UdpSocketIo, IoError> {
        assert!(queues >= 1, "at least one rx queue is required");
        let mut bound = Vec::with_capacity(queues);
        for _ in 0..queues {
            let socket = UdpSocket::bind((ip, 0)).map_err(|error| IoError::Socket {
                context: "binding rx queue socket",
                error,
            })?;
            socket
                .set_nonblocking(true)
                .map_err(|error| IoError::Socket {
                    context: "setting rx queue socket nonblocking",
                    error,
                })?;
            let local = socket.local_addr().map_err(|error| IoError::Socket {
                context: "reading rx queue local address",
                error,
            })?;
            bound.push(UdpQueue {
                socket,
                local,
                peer: Mutex::new(None),
            });
        }
        Ok(UdpSocketIo {
            state: Arc::new(UdpState {
                queues: bound,
                counters: LinkCounters::default(),
            }),
            next_queue: 0,
            buf: vec![0u8; RECV_BUF_LEN],
        })
    }

    /// The bound address of every rx queue, in queue order — what a load
    /// generator targets.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.state.queues.iter().map(|q| q.local).collect()
    }
}

impl PacketIo for UdpSocketIo {
    fn label(&self) -> &'static str {
        "udp"
    }

    fn rx_burst(&mut self, out: &mut Vec<Packet>, max: usize) -> Result<usize, IoError> {
        let queues = self.state.queues.len();
        let mut delivered = 0usize;
        let mut dry = 0usize;
        // Round-robin over queues until the burst fills or every queue
        // reports dry in succession.
        while delivered < max && dry < queues {
            let queue = &self.state.queues[self.next_queue];
            let queue_index = self.next_queue as u16;
            match queue.socket.recv_from(&mut self.buf) {
                Ok((len, src)) => {
                    dry = 0;
                    *queue.peer.lock().expect("udp peer slot poisoned") = Some(src);
                    if len == 0 || len > menshen_packet::MAX_FRAME_LEN {
                        self.state.counters.rx_errors.inc();
                    } else {
                        let mut packet = Packet::from_bytes(self.buf[..len].to_vec());
                        packet.ingress_port = queue_index;
                        self.state.counters.record_rx(len);
                        out.push(packet);
                        delivered += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    dry += 1;
                    self.next_queue = (self.next_queue + 1) % queues;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(error) => {
                    return Err(IoError::Socket {
                        context: "receiving on rx queue socket",
                        error,
                    });
                }
            }
        }
        Ok(delivered)
    }

    fn egress(&self) -> Arc<dyn EgressSink> {
        Arc::new(UdpEgress {
            state: Arc::clone(&self.state),
        })
    }

    fn drain(&mut self) -> Result<u64, IoError> {
        let mut discarded = 0u64;
        for queue in &self.state.queues {
            while discarded < DRAIN_LIMIT {
                match queue.socket.recv_from(&mut self.buf) {
                    Ok(_) => discarded += 1,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(error) => {
                        return Err(IoError::Socket {
                            context: "draining rx queue socket",
                            error,
                        });
                    }
                }
            }
        }
        self.state.counters.rx_drained.add(discarded);
        Ok(discarded)
    }

    fn link_stats(&self) -> LinkStats {
        self.state.counters.snapshot()
    }
}

impl EgressSink for UdpEgress {
    fn transmit(&self, packet: &Packet, verdict: &Verdict) {
        // The echo leaves through the socket of the queue the packet came
        // in on, toward that queue's learned peer. Runs on worker threads:
        // must never panic, and failures only cost the echo (the verdict is
        // still accounted by the runtime).
        let queues = &self.state.queues;
        let queue = &queues[packet.ingress_port as usize % queues.len()];
        let peer = *queue.peer.lock().expect("udp peer slot poisoned");
        let Some(peer) = peer else {
            self.state.counters.tx_errors.inc();
            return;
        };
        let wire = encode_echo(packet, verdict);
        match queue.socket.send_to(&wire, peer) {
            Ok(_) => self.state.counters.record_tx(ECHO_LEN),
            Err(_) => self.state.counters.tx_errors.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::decode_echo;
    use menshen_core::DropReason;
    use menshen_packet::PacketBuilder;
    use std::net::Ipv4Addr;
    use std::time::{Duration, Instant};

    fn localhost() -> IpAddr {
        IpAddr::V4(Ipv4Addr::LOCALHOST)
    }

    /// Polls `rx_burst` until `want` packets arrive or 5 s pass.
    fn rx_all(io: &mut UdpSocketIo, want: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.len() < want && Instant::now() < deadline {
            if io.rx_burst(&mut out, 64).unwrap() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        out
    }

    #[test]
    fn frames_arrive_with_queue_index_and_counters() {
        let mut io = UdpSocketIo::bind(localhost(), 2).unwrap();
        let addrs = io.local_addrs();
        let sender = UdpSocket::bind((localhost(), 0)).unwrap();
        let frame = PacketBuilder::udp_data(4, [10, 0, 0, 1], [10, 0, 0, 2], 7, 80, b"hi");
        let mut sent_bytes = 0u64;
        for (i, addr) in addrs.iter().enumerate() {
            for _ in 0..3 {
                sender.send_to(frame.bytes(), addr).unwrap();
                sent_bytes += frame.len() as u64;
                let _ = i;
            }
        }
        let got = rx_all(&mut io, 6);
        assert_eq!(got.len(), 6);
        assert_eq!(got.iter().filter(|p| p.ingress_port == 0).count(), 3);
        assert_eq!(got.iter().filter(|p| p.ingress_port == 1).count(), 3);
        assert!(got.iter().all(|p| p.bytes() == frame.bytes()));
        let stats = io.link_stats();
        assert_eq!(stats.rx_packets, 6);
        assert_eq!(stats.rx_bytes, sent_bytes);
    }

    #[test]
    fn echo_returns_to_the_learned_peer() {
        let mut io = UdpSocketIo::bind(localhost(), 1).unwrap();
        let addr = io.local_addrs()[0];
        let peer = UdpSocket::bind((localhost(), 0)).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let frame = PacketBuilder::udp_data(6, [10, 0, 0, 1], [10, 0, 0, 2], 7, 80, &[9, 9, 9, 9]);
        peer.send_to(frame.bytes(), addr).unwrap();
        let got = rx_all(&mut io, 1);
        assert_eq!(got.len(), 1);

        let sink = io.egress();
        sink.transmit(
            &got[0],
            &Verdict::Dropped {
                reason: DropReason::UnknownModule,
                module_id: Some(6),
            },
        );
        let mut buf = [0u8; 64];
        let (n, from) = peer.recv_from(&mut buf).unwrap();
        assert_eq!(from, addr);
        let echo = decode_echo(&buf[..n]).expect("well-formed echo");
        assert!(!echo.forwarded);
        assert_eq!(echo.module_id, 6);
        assert_eq!(&echo.token[..4], &[9, 9, 9, 9]);
        assert_eq!(io.link_stats().tx_packets, 1);
    }

    #[test]
    fn transmit_without_learned_peer_is_a_counted_error_not_a_panic() {
        let io = UdpSocketIo::bind(localhost(), 1).unwrap();
        let sink = io.egress();
        let frame = PacketBuilder::udp_data(1, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]);
        sink.transmit(
            &frame,
            &Verdict::Dropped {
                reason: DropReason::NoVlan,
                module_id: None,
            },
        );
        let stats = io.link_stats();
        assert_eq!(stats.tx_packets, 0);
        assert_eq!(stats.tx_errors, 1);
    }

    #[test]
    fn drain_slurps_pending_datagrams() {
        let mut io = UdpSocketIo::bind(localhost(), 2).unwrap();
        let addrs = io.local_addrs();
        let sender = UdpSocket::bind((localhost(), 0)).unwrap();
        let frame = PacketBuilder::udp_data(1, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]);
        for addr in &addrs {
            sender.send_to(frame.bytes(), addr).unwrap();
        }
        // Give loopback a moment to land both datagrams.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut drained = 0u64;
        while drained < 2 && Instant::now() < deadline {
            drained += io.drain().unwrap();
            if drained < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(drained, 2);
        let stats = io.link_stats();
        assert_eq!(stats.rx_drained, 2);
        assert_eq!(stats.rx_packets, 0);
        let mut out = Vec::new();
        assert_eq!(io.rx_burst(&mut out, 16).unwrap(), 0);
    }
}
