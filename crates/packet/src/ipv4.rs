//! IPv4 header parsing and emission.

use crate::checksum;
use crate::error::{check_len, PacketError};
use crate::Result;
use core::fmt;

/// Minimum IPv4 header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// Constructs an address from 4 octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address([a, b, c, d])
    }

    /// Parses from a slice of exactly 4 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let array: [u8; 4] = bytes.try_into().ok()?;
        Some(Ipv4Address(array))
    }

    /// Returns the raw octets.
    pub const fn as_bytes(&self) -> &[u8; 4] {
        &self.0
    }

    /// Returns the address as a big-endian u32 (useful as a match key).
    pub const fn to_u32(&self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Builds an address from a big-endian u32.
    pub const fn from_u32(value: u32) -> Self {
        Ipv4Address(value.to_be_bytes())
    }

    /// True for class-D multicast addresses (224.0.0.0/4).
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0xf0 == 0xe0
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl From<[u8; 4]> for Ipv4Address {
    fn from(octets: [u8; 4]) -> Self {
        Ipv4Address(octets)
    }
}

/// IP protocol numbers understood by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(value: u8) -> Self {
        match value {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(value: IpProtocol) -> Self {
        match value {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(other) => other,
        }
    }
}

/// A view over an IPv4 header.
#[derive(Debug, Clone)]
pub struct Ipv4Header<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Header<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Header { buffer }
    }

    /// Wraps a buffer, checking version, IHL and length consistency.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), MIN_HEADER_LEN)?;
        let header = Ipv4Header { buffer };
        if header.version() != 4 {
            return Err(PacketError::Unsupported);
        }
        let ihl_bytes = header.header_len();
        if ihl_bytes < MIN_HEADER_LEN || header.buffer.as_ref().len() < ihl_bytes {
            return Err(PacketError::BadLength);
        }
        if usize::from(header.total_len()) < ihl_bytes {
            return Err(PacketError::BadLength);
        }
        Ok(header)
    }

    /// IP version field (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Differentiated services code point (6 bits).
    pub fn dscp(&self) -> u8 {
        self.buffer.as_ref()[1] >> 2
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.buffer.as_ref()[2], self.buffer.as_ref()[3]])
    }

    /// Identification field.
    pub fn identification(&self) -> u16 {
        u16::from_be_bytes([self.buffer.as_ref()[4], self.buffer.as_ref()[5]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Encapsulated protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.buffer.as_ref()[9])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[12..16]).expect("checked length")
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[16..20]).expect("checked length")
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buffer.as_ref()[..self.header_len()])
    }

    /// The payload following the header, bounded by the total-length field
    /// when the buffer is longer (e.g. Ethernet padding).
    pub fn payload(&self) -> &[u8] {
        let start = self.header_len();
        let end = usize::from(self.total_len()).min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[start..end.max(start)]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Header<T> {
    /// Sets version=4 and the header length in bytes (must be a multiple of 4).
    pub fn set_version_and_len(&mut self, header_len: usize) {
        self.buffer.as_mut()[0] = 0x40 | ((header_len / 4) as u8 & 0x0f);
    }

    /// Sets the DSCP field (ECN bits cleared).
    pub fn set_dscp(&mut self, dscp: u8) {
        self.buffer.as_mut()[1] = (dscp & 0x3f) << 2;
    }

    /// Sets the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Sets the identification field.
    pub fn set_identification(&mut self, id: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Sets the TTL field.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Sets the protocol field.
    pub fn set_protocol(&mut self, protocol: IpProtocol) {
        self.buffer.as_mut()[9] = protocol.into();
    }

    /// Sets the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[12..16].copy_from_slice(addr.as_bytes());
    }

    /// Sets the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[16..20].copy_from_slice(addr.as_bytes());
    }

    /// Recomputes and writes the header checksum.
    pub fn fill_checksum(&mut self) {
        let len = self.header_len();
        self.buffer.as_mut()[10..12].copy_from_slice(&[0, 0]);
        let csum = checksum::checksum(&self.buffer.as_ref()[..len]);
        self.buffer.as_mut()[10..12].copy_from_slice(&csum.to_be_bytes());
    }
}

/// Plain-old-data description of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Encapsulated protocol.
    pub protocol: IpProtocol,
    /// Payload length in bytes (excluding the IPv4 header).
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
    /// DSCP code point.
    pub dscp: u8,
}

impl Ipv4Repr {
    /// Parses a representation from a header view.
    pub fn parse<T: AsRef<[u8]>>(header: &Ipv4Header<T>) -> Result<Self> {
        if !header.verify_checksum() {
            return Err(PacketError::BadChecksum);
        }
        Ok(Ipv4Repr {
            src: header.src_addr(),
            dst: header.dst_addr(),
            protocol: header.protocol(),
            payload_len: usize::from(header.total_len()).saturating_sub(header.header_len()),
            ttl: header.ttl(),
            dscp: header.dscp(),
        })
    }

    /// Number of bytes the emitted header occupies.
    pub const fn header_len(&self) -> usize {
        MIN_HEADER_LEN
    }

    /// Emits the header (with checksum) into the front of `buffer`.
    pub fn emit(&self, buffer: &mut [u8]) -> Result<()> {
        check_len(buffer, MIN_HEADER_LEN)?;
        let total = self.payload_len + MIN_HEADER_LEN;
        if total > usize::from(u16::MAX) {
            return Err(PacketError::BadLength);
        }
        let mut header = Ipv4Header::new_unchecked(buffer);
        header.set_version_and_len(MIN_HEADER_LEN);
        header.set_dscp(self.dscp);
        header.set_total_len(total as u16);
        header.set_identification(0);
        header.buffer[6..8].copy_from_slice(&[0x40, 0]); // DF, no fragments
        header.set_ttl(self.ttl);
        header.set_protocol(self.protocol);
        header.set_src_addr(self.src);
        header.set_dst_addr(self.dst);
        header.fill_checksum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Address::new(10, 0, 0, 1),
            dst: Ipv4Address::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            payload_len: 26,
            ttl: 64,
            dscp: 0,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.header_len() + repr.payload_len];
        repr.emit(&mut buf).unwrap();
        let header = Ipv4Header::new_checked(&buf[..]).unwrap();
        assert!(header.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&header).unwrap(), repr);
        assert_eq!(header.payload().len(), 26);
    }

    #[test]
    fn corrupt_checksum_detected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; 46];
        repr.emit(&mut buf).unwrap();
        buf[15] ^= 0xff;
        let header = Ipv4Header::new_checked(&buf[..]).unwrap();
        assert!(!header.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&header), Err(PacketError::BadChecksum));
    }

    #[test]
    fn non_v4_rejected() {
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Header::new_checked(&buf[..]).err(),
            Some(PacketError::Unsupported)
        );
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut buf = [0u8; 20];
        buf[0] = 0x43; // version 4, IHL 3 (12 bytes < 20)
        assert_eq!(
            Ipv4Header::new_checked(&buf[..]).err(),
            Some(PacketError::BadLength)
        );
        let mut buf = [0u8; 20];
        buf[0] = 0x46; // IHL 6 = 24 bytes, but buffer has 20
        assert_eq!(
            Ipv4Header::new_checked(&buf[..]).err(),
            Some(PacketError::BadLength)
        );
    }

    #[test]
    fn address_helpers() {
        let addr = Ipv4Address::new(224, 0, 0, 1);
        assert!(addr.is_multicast());
        assert_eq!(addr.to_string(), "224.0.0.1");
        assert_eq!(Ipv4Address::from_u32(addr.to_u32()), addr);
        assert!(!Ipv4Address::new(10, 1, 2, 3).is_multicast());
        assert!(Ipv4Address::from_bytes(&[1, 2, 3]).is_none());
    }

    #[test]
    fn protocol_conversions() {
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
        assert_eq!(u8::from(IpProtocol::Other(89)), 89);
    }
}
