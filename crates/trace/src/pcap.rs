//! Reading and writing packet-capture files, dependency-free.
//!
//! Two container formats are supported:
//!
//! * **classic pcap** (libpcap's `pcap_file_header`): both the microsecond
//!   magic `0xA1B2C3D4` and the nanosecond magic `0xA1B23C4D`, in either
//!   byte order — readers of foreign captures see all four magic values in
//!   the wild;
//! * **pcapng** (the block-structured successor): Section Header,
//!   Interface Description and Enhanced Packet blocks, in either byte
//!   order, with `if_tsresol` honoured on read; unknown block types and
//!   options are skipped, as the spec requires.
//!
//! Frames round-trip byte-identically: what [`write_pcap`] writes,
//! [`read_pcap`] returns as the same [`Packet`] bytes with the same
//! [`Packet::timestamp_ns`] (classic microsecond captures quantise
//! timestamps to whole microseconds — that is the format's resolution, not
//! a reader defect). Only link-type Ethernet (1) is accepted: that is what
//! the Menshen data path parses.

use menshen_packet::Packet;
use std::io::{self, Write};
use std::path::Path;

/// Classic pcap magic: microsecond timestamps.
pub const MAGIC_MICROS: u32 = 0xA1B2_C3D4;
/// Classic pcap magic: nanosecond timestamps.
pub const MAGIC_NANOS: u32 = 0xA1B2_3C4D;
/// pcapng Section Header Block type (reads the same in both byte orders).
const PCAPNG_SHB: u32 = 0x0A0D_0D0A;
/// pcapng byte-order magic inside the SHB.
const PCAPNG_BYTE_ORDER: u32 = 0x1A2B_3C4D;
/// pcapng Interface Description Block type.
const PCAPNG_IDB: u32 = 0x0000_0001;
/// pcapng Enhanced Packet Block type.
const PCAPNG_EPB: u32 = 0x0000_0006;
/// pcapng Simple Packet Block type (no timestamp).
const PCAPNG_SPB: u32 = 0x0000_0003;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;
/// Snaplen we advertise when writing (we never truncate).
const SNAPLEN: u32 = 0x0004_0000;

/// Timestamp resolution of a classic pcap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimestampPrecision {
    /// Second + microsecond records (magic `0xA1B2C3D4`). Timestamps are
    /// quantised to whole microseconds on write.
    Micros,
    /// Second + nanosecond records (magic `0xA1B23C4D`). Lossless for
    /// [`Packet::timestamp_ns`].
    Nanos,
}

/// Byte order a capture is written in. Readers auto-detect; the writer knob
/// exists so round-trip tests (and consumers of big-endian captures from
/// network appliances) can exercise both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endianness {
    /// Little-endian (the common case on x86 capture hosts).
    Little,
    /// Big-endian.
    Big,
}

/// Why a capture could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// The file does not start with any known pcap or pcapng magic.
    BadMagic(u32),
    /// The file ended in the middle of a header or record.
    Truncated(&'static str),
    /// The capture is structurally valid but uses a feature this reader
    /// does not support (e.g. a non-Ethernet link type).
    Unsupported(String),
    /// A classic-pcap record was snaplen-truncated at capture time
    /// (`incl_len < orig_len`): only a prefix of the original frame is in
    /// the file. The Menshen data path parses full Ethernet frames, so a
    /// truncated record cannot be replayed faithfully — the reader surfaces
    /// this typed error instead of silently treating the prefix as the
    /// whole frame (which parses, mis-hashes and mis-matches downstream).
    SnaplenTruncated {
        /// Zero-based index of the offending record.
        record: usize,
        /// Bytes actually stored in the capture.
        incl_len: u32,
        /// Bytes of the original frame on the wire.
        orig_len: u32,
    },
    /// An I/O error (file readers only).
    Io(String),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::BadMagic(magic) => {
                write!(f, "not a pcap or pcapng capture (magic {magic:#010x})")
            }
            PcapError::Truncated(what) => write!(f, "capture truncated inside {what}"),
            PcapError::Unsupported(what) => write!(f, "unsupported capture feature: {what}"),
            PcapError::SnaplenTruncated {
                record,
                incl_len,
                orig_len,
            } => write!(
                f,
                "record {record} is snaplen-truncated: {incl_len} of {orig_len} frame bytes \
                 captured — partial frames cannot be replayed faithfully"
            ),
            PcapError::Io(message) => write!(f, "capture I/O error: {message}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(error: io::Error) -> Self {
        PcapError::Io(error.to_string())
    }
}

// ---------------------------------------------------------------------------
// Byte-order helpers
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Codec {
    big: bool,
}

impl Codec {
    fn u16(self, bytes: [u8; 2]) -> u16 {
        if self.big {
            u16::from_be_bytes(bytes)
        } else {
            u16::from_le_bytes(bytes)
        }
    }

    fn u32(self, bytes: [u8; 4]) -> u32 {
        if self.big {
            u32::from_be_bytes(bytes)
        } else {
            u32::from_le_bytes(bytes)
        }
    }

    fn put_u16(self, value: u16) -> [u8; 2] {
        if self.big {
            value.to_be_bytes()
        } else {
            value.to_le_bytes()
        }
    }

    fn put_u32(self, value: u32) -> [u8; 4] {
        if self.big {
            value.to_be_bytes()
        } else {
            value.to_le_bytes()
        }
    }
}

/// A bounds-checked forward reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], PcapError> {
        if self.remaining() < len {
            return Err(PcapError::Truncated(what));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u16(&mut self, codec: Codec, what: &'static str) -> Result<u16, PcapError> {
        let b = self.take(2, what)?;
        Ok(codec.u16([b[0], b[1]]))
    }

    fn u32(&mut self, codec: Codec, what: &'static str) -> Result<u32, PcapError> {
        let b = self.take(4, what)?;
        Ok(codec.u32([b[0], b[1], b[2], b[3]]))
    }
}

// ---------------------------------------------------------------------------
// Classic pcap
// ---------------------------------------------------------------------------

/// Serialises `packets` as a classic pcap capture. Each packet's
/// [`Packet::timestamp_ns`] becomes the record timestamp
/// ([`Micros`](TimestampPrecision::Micros) quantises to the format's resolution);
/// frames are written in full (no snaplen truncation).
pub fn write_pcap<W: Write>(
    out: &mut W,
    packets: &[Packet],
    precision: TimestampPrecision,
    endianness: Endianness,
) -> io::Result<()> {
    let codec = Codec {
        big: endianness == Endianness::Big,
    };
    let magic = match precision {
        TimestampPrecision::Micros => MAGIC_MICROS,
        TimestampPrecision::Nanos => MAGIC_NANOS,
    };
    out.write_all(&codec.put_u32(magic))?;
    out.write_all(&codec.put_u16(2))?; // version major
    out.write_all(&codec.put_u16(4))?; // version minor
    out.write_all(&codec.put_u32(0))?; // thiszone
    out.write_all(&codec.put_u32(0))?; // sigfigs
    out.write_all(&codec.put_u32(SNAPLEN))?;
    out.write_all(&codec.put_u32(LINKTYPE_ETHERNET))?;
    for packet in packets {
        let seconds = (packet.timestamp_ns / 1_000_000_000) as u32;
        let fraction = match precision {
            TimestampPrecision::Micros => (packet.timestamp_ns % 1_000_000_000) / 1_000,
            TimestampPrecision::Nanos => packet.timestamp_ns % 1_000_000_000,
        } as u32;
        let len = packet.len() as u32;
        out.write_all(&codec.put_u32(seconds))?;
        out.write_all(&codec.put_u32(fraction))?;
        out.write_all(&codec.put_u32(len))?; // incl_len
        out.write_all(&codec.put_u32(len))?; // orig_len
        out.write_all(packet.bytes())?;
    }
    Ok(())
}

fn read_classic(bytes: &[u8]) -> Result<Vec<Packet>, PcapError> {
    let mut cursor = Cursor::new(bytes);
    let raw_magic = {
        let b = cursor.take(4, "file header")?;
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    };
    // Try the magic as little-endian first, then byte-swapped.
    let (codec, nanos) = match raw_magic {
        MAGIC_MICROS => (Codec { big: false }, false),
        MAGIC_NANOS => (Codec { big: false }, true),
        m if m.swap_bytes() == MAGIC_MICROS => (Codec { big: true }, false),
        m if m.swap_bytes() == MAGIC_NANOS => (Codec { big: true }, true),
        other => return Err(PcapError::BadMagic(other)),
    };
    let _version_major = cursor.u16(codec, "file header")?;
    let _version_minor = cursor.u16(codec, "file header")?;
    let _thiszone = cursor.u32(codec, "file header")?;
    let _sigfigs = cursor.u32(codec, "file header")?;
    let _snaplen = cursor.u32(codec, "file header")?;
    let network = cursor.u32(codec, "file header")?;
    if network != LINKTYPE_ETHERNET {
        return Err(PcapError::Unsupported(format!(
            "link type {network} (only Ethernet is parseable by the pipeline)"
        )));
    }
    let mut packets = Vec::new();
    while cursor.remaining() > 0 {
        let seconds = cursor.u32(codec, "record header")?;
        let fraction = cursor.u32(codec, "record header")?;
        let incl_len = cursor.u32(codec, "record header")?;
        let orig_len = cursor.u32(codec, "record header")?;
        // incl_len is how many bytes follow in the file; orig_len is the
        // frame's on-the-wire size. They differ exactly when the capturing
        // tool's snaplen cut the frame short — a prefix is not the frame,
        // so refuse with a typed error rather than parse it as one.
        if incl_len < orig_len {
            return Err(PcapError::SnaplenTruncated {
                record: packets.len(),
                incl_len,
                orig_len,
            });
        }
        if incl_len > orig_len {
            return Err(PcapError::Unsupported(format!(
                "record {} stores {incl_len} bytes for a {orig_len}-byte frame \
                 (malformed capture)",
                packets.len()
            )));
        }
        let data = cursor.take(incl_len as usize, "record data")?;
        let fraction_ns = if nanos {
            u64::from(fraction)
        } else {
            u64::from(fraction) * 1_000
        };
        let timestamp_ns = u64::from(seconds) * 1_000_000_000 + fraction_ns;
        packets.push(Packet::from_bytes_at(data.to_vec(), timestamp_ns));
    }
    Ok(packets)
}

// ---------------------------------------------------------------------------
// pcapng
// ---------------------------------------------------------------------------

fn pad4(len: usize) -> usize {
    (4 - len % 4) % 4
}

/// Serialises `packets` as a pcapng capture: one Section Header Block, one
/// Ethernet Interface Description Block advertising nanosecond resolution
/// (`if_tsresol = 9`), and one Enhanced Packet Block per packet. Lossless
/// for [`Packet::timestamp_ns`].
pub fn write_pcapng<W: Write>(
    out: &mut W,
    packets: &[Packet],
    endianness: Endianness,
) -> io::Result<()> {
    let codec = Codec {
        big: endianness == Endianness::Big,
    };
    // Section Header Block (no options): 28 bytes.
    out.write_all(&codec.put_u32(PCAPNG_SHB))?;
    out.write_all(&codec.put_u32(28))?;
    out.write_all(&codec.put_u32(PCAPNG_BYTE_ORDER))?;
    out.write_all(&codec.put_u16(1))?; // major
    out.write_all(&codec.put_u16(0))?; // minor
    out.write_all(&codec.put_u32(0xffff_ffff))?; // section length: unspecified
    out.write_all(&codec.put_u32(0xffff_ffff))?;
    out.write_all(&codec.put_u32(28))?;
    // Interface Description Block with if_tsresol = 9 (nanoseconds).
    out.write_all(&codec.put_u32(PCAPNG_IDB))?;
    out.write_all(&codec.put_u32(32))?;
    out.write_all(&codec.put_u16(LINKTYPE_ETHERNET as u16))?;
    out.write_all(&codec.put_u16(0))?; // reserved
    out.write_all(&codec.put_u32(SNAPLEN))?;
    out.write_all(&codec.put_u16(9))?; // option: if_tsresol
    out.write_all(&codec.put_u16(1))?; // length 1
    out.write_all(&[9, 0, 0, 0])?; // 10^-9, padded to 4
    out.write_all(&codec.put_u16(0))?; // opt_endofopt
    out.write_all(&codec.put_u16(0))?;
    out.write_all(&codec.put_u32(32))?;
    // One Enhanced Packet Block per packet.
    for packet in packets {
        let data_len = packet.len();
        let padding = pad4(data_len);
        let block_len = (32 + data_len + padding) as u32;
        out.write_all(&codec.put_u32(PCAPNG_EPB))?;
        out.write_all(&codec.put_u32(block_len))?;
        out.write_all(&codec.put_u32(0))?; // interface id
        out.write_all(&codec.put_u32((packet.timestamp_ns >> 32) as u32))?;
        out.write_all(&codec.put_u32(packet.timestamp_ns as u32))?;
        out.write_all(&codec.put_u32(data_len as u32))?; // captured
        out.write_all(&codec.put_u32(data_len as u32))?; // original
        out.write_all(packet.bytes())?;
        out.write_all(&[0u8; 3][..padding])?;
        out.write_all(&codec.put_u32(block_len))?;
    }
    Ok(())
}

/// Per-interface metadata collected from IDBs while reading a section.
struct Interface {
    /// Multiplier from timestamp units to nanoseconds (`None` when the
    /// resolution is finer than 1 ns and units must be divided instead).
    units_to_ns: Option<u64>,
    divide_by: u64,
    /// Capture length limit (0 = unlimited). Simple Packet Blocks carry no
    /// captured-length field, so their data length is `min(original,
    /// snaplen)` — without this the body's padding bytes would be mistaken
    /// for frame data on snaplen-truncating captures.
    snaplen: u32,
}

fn interface_from_idb(codec: Codec, body: &[u8]) -> Result<Interface, PcapError> {
    let mut cursor = Cursor::new(body);
    let linktype = cursor.u16(codec, "interface block")?;
    let _reserved = cursor.u16(codec, "interface block")?;
    let snaplen = cursor.u32(codec, "interface block")?;
    if u32::from(linktype) != LINKTYPE_ETHERNET {
        return Err(PcapError::Unsupported(format!(
            "pcapng link type {linktype} (only Ethernet is parseable)"
        )));
    }
    // Default resolution is 10^-6 per the spec; scan options for if_tsresol.
    let mut power: u8 = 6;
    let mut pow2 = false;
    while cursor.remaining() >= 4 {
        let code = cursor.u16(codec, "interface option")?;
        let length = cursor.u16(codec, "interface option")? as usize;
        let value = cursor.take(length + pad4(length), "interface option")?;
        match code {
            0 => break, // opt_endofopt
            9 if length >= 1 => {
                pow2 = value[0] & 0x80 != 0;
                power = value[0] & 0x7f;
            }
            _ => {}
        }
    }
    if pow2 {
        return Err(PcapError::Unsupported(
            "pcapng power-of-two timestamp resolution".into(),
        ));
    }
    Ok(if power <= 9 {
        Interface {
            units_to_ns: Some(10u64.pow(u32::from(9 - power))),
            divide_by: 1,
            snaplen,
        }
    } else {
        Interface {
            units_to_ns: None,
            divide_by: 10u64.pow(u32::from(power.min(18) - 9)),
            snaplen,
        }
    })
}

fn read_pcapng_bytes(bytes: &[u8]) -> Result<Vec<Packet>, PcapError> {
    let mut cursor = Cursor::new(bytes);
    let mut packets = Vec::new();
    let mut interfaces: Vec<Interface> = Vec::new();
    let mut codec = Codec { big: false };
    let mut first_block = true;
    while cursor.remaining() > 0 {
        // Peek the block type with the current codec; the SHB type value is
        // palindromic so it reads correctly before the byte order is known.
        let block_type = cursor.u32(codec, "block header")?;
        if first_block && block_type != PCAPNG_SHB {
            return Err(PcapError::BadMagic(block_type));
        }
        if block_type == PCAPNG_SHB {
            // Establish byte order from the byte-order magic, then re-read
            // the total length with the right codec.
            let raw_len = cursor.take(4, "section header")?;
            let raw_magic = cursor.take(4, "section header")?;
            let magic_le =
                u32::from_le_bytes([raw_magic[0], raw_magic[1], raw_magic[2], raw_magic[3]]);
            codec = if magic_le == PCAPNG_BYTE_ORDER {
                Codec { big: false }
            } else if magic_le.swap_bytes() == PCAPNG_BYTE_ORDER {
                Codec { big: true }
            } else {
                return Err(PcapError::BadMagic(magic_le));
            };
            let total_len = codec.u32([raw_len[0], raw_len[1], raw_len[2], raw_len[3]]) as usize;
            if total_len < 28 || !total_len.is_multiple_of(4) {
                return Err(PcapError::Unsupported(format!(
                    "section header of length {total_len}"
                )));
            }
            // Skip the rest of the SHB (version, section length, options,
            // trailing length): 12 bytes consumed so far.
            cursor.take(total_len - 12, "section header")?;
            interfaces.clear();
            first_block = false;
            continue;
        }
        let total_len = cursor.u32(codec, "block header")? as usize;
        if total_len < 12 || !total_len.is_multiple_of(4) {
            return Err(PcapError::Unsupported(format!(
                "block of length {total_len}"
            )));
        }
        let body = cursor.take(total_len - 12, "block body")?;
        let trailing = cursor.u32(codec, "block trailer")?;
        if trailing as usize != total_len {
            return Err(PcapError::Unsupported(
                "mismatched block length trailer".into(),
            ));
        }
        match block_type {
            PCAPNG_IDB => interfaces.push(interface_from_idb(codec, body)?),
            PCAPNG_EPB => {
                let mut block = Cursor::new(body);
                let interface_id = block.u32(codec, "packet block")? as usize;
                let ts_high = block.u32(codec, "packet block")?;
                let ts_low = block.u32(codec, "packet block")?;
                let captured = block.u32(codec, "packet block")? as usize;
                let _original = block.u32(codec, "packet block")?;
                let data = block.take(captured, "packet data")?;
                let interface = interfaces.get(interface_id).ok_or_else(|| {
                    PcapError::Unsupported(format!(
                        "packet references undeclared interface {interface_id}"
                    ))
                })?;
                let units = (u64::from(ts_high) << 32) | u64::from(ts_low);
                let timestamp_ns = match interface.units_to_ns {
                    Some(multiplier) => units.saturating_mul(multiplier),
                    None => units / interface.divide_by,
                };
                packets.push(Packet::from_bytes_at(data.to_vec(), timestamp_ns));
            }
            PCAPNG_SPB => {
                let mut block = Cursor::new(body);
                let original = block.u32(codec, "simple packet block")? as usize;
                let Some(interface) = interfaces.first() else {
                    return Err(PcapError::Unsupported(
                        "simple packet block before any interface".into(),
                    ));
                };
                // SPBs always belong to interface 0 and carry no captured-
                // length field: per the spec, data length is min(original,
                // snaplen) — otherwise the block's pad bytes would be read
                // as frame data on snaplen-truncating foreign captures.
                let mut captured = original;
                if interface.snaplen != 0 {
                    captured = captured.min(interface.snaplen as usize);
                }
                let data = block.take(captured.min(block.remaining()), "simple packet data")?;
                packets.push(Packet::from_bytes(data.to_vec()));
            }
            _ => {} // unknown block: skipped, per the spec
        }
    }
    Ok(packets)
}

// ---------------------------------------------------------------------------
// Auto-detecting entry points
// ---------------------------------------------------------------------------

/// Parses a capture from memory, auto-detecting classic pcap (either magic,
/// either byte order) or pcapng.
pub fn read_pcap(bytes: &[u8]) -> Result<Vec<Packet>, PcapError> {
    if bytes.len() < 4 {
        return Err(PcapError::Truncated("file header"));
    }
    let first = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if first == PCAPNG_SHB {
        read_pcapng_bytes(bytes)
    } else {
        read_classic(bytes)
    }
}

/// Reads a capture file from disk (classic pcap or pcapng, auto-detected).
pub fn read_pcap_file(path: impl AsRef<Path>) -> Result<Vec<Packet>, PcapError> {
    let bytes = std::fs::read(path)?;
    read_pcap(&bytes)
}

/// Writes `packets` to `path` as a classic pcap capture.
pub fn write_pcap_file(
    path: impl AsRef<Path>,
    packets: &[Packet],
    precision: TimestampPrecision,
    endianness: Endianness,
) -> io::Result<()> {
    let mut buffer = Vec::new();
    write_pcap(&mut buffer, packets, precision, endianness)?;
    std::fs::write(path, buffer)
}

/// Writes `packets` to `path` as a pcapng capture.
pub fn write_pcapng_file(
    path: impl AsRef<Path>,
    packets: &[Packet],
    endianness: Endianness,
) -> io::Result<()> {
    let mut buffer = Vec::new();
    write_pcapng(&mut buffer, packets, endianness)?;
    std::fs::write(path, buffer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_packet::PacketBuilder;

    fn sample_packets() -> Vec<Packet> {
        (0..20u16)
            .map(|i| {
                let mut packet = PacketBuilder::udp_data(
                    1 + i % 4,
                    [10, 0, (i >> 8) as u8, i as u8],
                    [10, 0, 1, 1],
                    1024 + i,
                    80,
                    &vec![i as u8; (i as usize % 7) * 9],
                );
                // Microsecond-aligned so the µs format round-trips exactly.
                packet.timestamp_ns = u64::from(i) * 1_234_000 + 1_000_000_000;
                packet
            })
            .collect()
    }

    fn assert_identical(read: &[Packet], written: &[Packet]) {
        assert_eq!(read.len(), written.len());
        for (got, want) in read.iter().zip(written) {
            assert_eq!(got.bytes(), want.bytes(), "frame bytes must round-trip");
            assert_eq!(got.timestamp_ns, want.timestamp_ns, "timestamps");
        }
    }

    #[test]
    fn classic_micros_round_trips_both_endiannesses() {
        let packets = sample_packets();
        for endianness in [Endianness::Little, Endianness::Big] {
            let mut buffer = Vec::new();
            write_pcap(
                &mut buffer,
                &packets,
                TimestampPrecision::Micros,
                endianness,
            )
            .unwrap();
            assert_identical(&read_pcap(&buffer).unwrap(), &packets);
        }
    }

    #[test]
    fn classic_nanos_round_trips_both_endiannesses() {
        let mut packets = sample_packets();
        for (i, packet) in packets.iter_mut().enumerate() {
            packet.timestamp_ns += i as u64 * 7 + 3; // sub-µs precision
        }
        for endianness in [Endianness::Little, Endianness::Big] {
            let mut buffer = Vec::new();
            write_pcap(&mut buffer, &packets, TimestampPrecision::Nanos, endianness).unwrap();
            assert_identical(&read_pcap(&buffer).unwrap(), &packets);
        }
    }

    #[test]
    fn micros_format_quantises_to_microseconds() {
        let mut packet = PacketBuilder::udp_data(1, [1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]);
        packet.timestamp_ns = 5_000_000_999;
        let mut buffer = Vec::new();
        write_pcap(
            &mut buffer,
            &[packet],
            TimestampPrecision::Micros,
            Endianness::Little,
        )
        .unwrap();
        let read = read_pcap(&buffer).unwrap();
        assert_eq!(read[0].timestamp_ns, 5_000_000_000);
    }

    #[test]
    fn pcapng_round_trips_both_endiannesses() {
        let mut packets = sample_packets();
        for (i, packet) in packets.iter_mut().enumerate() {
            packet.timestamp_ns += i as u64; // full nanosecond precision
        }
        for endianness in [Endianness::Little, Endianness::Big] {
            let mut buffer = Vec::new();
            write_pcapng(&mut buffer, &packets, endianness).unwrap();
            assert_identical(&read_pcap(&buffer).unwrap(), &packets);
        }
    }

    #[test]
    fn pcapng_skips_unknown_blocks() {
        let packets = sample_packets();
        let mut buffer = Vec::new();
        write_pcapng(&mut buffer, &packets[..2], Endianness::Little).unwrap();
        // Splice an unknown 16-byte block (type 0x0BAD) after the first two
        // EPBs, then a third EPB (lifted from a second capture by skipping
        // its 28-byte SHB and 32-byte IDB). The reader must skip the
        // unknown block and still see all three packets.
        let codec = Codec { big: false };
        buffer.extend_from_slice(&codec.put_u32(0x0000_0BAD));
        buffer.extend_from_slice(&codec.put_u32(16));
        buffer.extend_from_slice(&codec.put_u32(0xdead_beef));
        buffer.extend_from_slice(&codec.put_u32(16));
        let mut tail = Vec::new();
        write_pcapng(&mut tail, &packets[2..3], Endianness::Little).unwrap();
        buffer.extend_from_slice(&tail[60..]);
        let read = read_pcap(&buffer).unwrap();
        assert_identical(&read, &packets[..3]);
    }

    #[test]
    fn simple_packet_blocks_respect_the_interface_snaplen() {
        // Hand-crafted capture: SHB, IDB with snaplen 70, one SPB whose
        // original length (1500) exceeds the snaplen — the stored data is
        // 70 bytes plus 2 pad bytes, and the pad must NOT become frame data.
        let codec = Codec { big: false };
        let mut capture = Vec::new();
        capture.extend_from_slice(&codec.put_u32(PCAPNG_SHB));
        capture.extend_from_slice(&codec.put_u32(28));
        capture.extend_from_slice(&codec.put_u32(PCAPNG_BYTE_ORDER));
        capture.extend_from_slice(&codec.put_u16(1));
        capture.extend_from_slice(&codec.put_u16(0));
        capture.extend_from_slice(&codec.put_u32(0xffff_ffff));
        capture.extend_from_slice(&codec.put_u32(0xffff_ffff));
        capture.extend_from_slice(&codec.put_u32(28));
        // IDB, no options, snaplen 70.
        capture.extend_from_slice(&codec.put_u32(PCAPNG_IDB));
        capture.extend_from_slice(&codec.put_u32(20));
        capture.extend_from_slice(&codec.put_u16(LINKTYPE_ETHERNET as u16));
        capture.extend_from_slice(&codec.put_u16(0));
        capture.extend_from_slice(&codec.put_u32(70));
        capture.extend_from_slice(&codec.put_u32(20));
        // SPB: original 1500, truncated data = 70 bytes of 0xAB + 2 pad.
        capture.extend_from_slice(&codec.put_u32(PCAPNG_SPB));
        capture.extend_from_slice(&codec.put_u32(88));
        capture.extend_from_slice(&codec.put_u32(1500));
        capture.extend_from_slice(&[0xAB; 70]);
        capture.extend_from_slice(&[0, 0]);
        capture.extend_from_slice(&codec.put_u32(88));

        let packets = read_pcap(&capture).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].len(), 70, "pad bytes must not join the frame");
        assert!(packets[0].bytes().iter().all(|&b| b == 0xAB));
    }

    /// Hand-crafts a classic capture whose single record was truncated by a
    /// capturing snaplen (`incl_len < orig_len`).
    fn snaplen_truncated_fixture(codec: Codec, nanos: bool) -> Vec<u8> {
        let mut capture = Vec::new();
        let magic = if nanos { MAGIC_NANOS } else { MAGIC_MICROS };
        capture.extend_from_slice(&codec.put_u32(magic));
        capture.extend_from_slice(&codec.put_u16(2)); // version major
        capture.extend_from_slice(&codec.put_u16(4)); // version minor
        capture.extend_from_slice(&codec.put_u32(0)); // thiszone
        capture.extend_from_slice(&codec.put_u32(0)); // sigfigs
        capture.extend_from_slice(&codec.put_u32(64)); // snaplen 64
        capture.extend_from_slice(&codec.put_u32(LINKTYPE_ETHERNET));
        // One record: a 128-byte frame of which only 64 bytes were captured.
        capture.extend_from_slice(&codec.put_u32(7)); // ts seconds
        capture.extend_from_slice(&codec.put_u32(0)); // ts fraction
        capture.extend_from_slice(&codec.put_u32(64)); // incl_len
        capture.extend_from_slice(&codec.put_u32(128)); // orig_len
        capture.extend_from_slice(&[0x5A; 64]);
        capture
    }

    #[test]
    fn snaplen_truncated_records_are_a_typed_error() {
        // Regression: the reader used to treat incl_len as the full frame,
        // silently replaying 64-byte prefixes as if they were the packets.
        for (big, nanos) in [(false, false), (false, true), (true, false)] {
            let capture = snaplen_truncated_fixture(Codec { big }, nanos);
            match read_pcap(&capture) {
                Err(PcapError::SnaplenTruncated {
                    record,
                    incl_len,
                    orig_len,
                }) => {
                    assert_eq!((record, incl_len, orig_len), (0, 64, 128));
                }
                other => panic!("expected SnaplenTruncated (big={big}), got {other:?}"),
            }
        }
        let err = read_pcap(&snaplen_truncated_fixture(Codec { big: false }, false)).unwrap_err();
        assert!(err.to_string().contains("snaplen-truncated"), "{err}");

        // An intact record *after* a truncated one still errors (index 1).
        let mut capture = Vec::new();
        write_pcap(
            &mut capture,
            &sample_packets()[..1],
            TimestampPrecision::Micros,
            Endianness::Little,
        )
        .unwrap();
        let codec = Codec { big: false };
        capture.extend_from_slice(&codec.put_u32(9));
        capture.extend_from_slice(&codec.put_u32(0));
        capture.extend_from_slice(&codec.put_u32(10)); // incl
        capture.extend_from_slice(&codec.put_u32(1000)); // orig
        capture.extend_from_slice(&[0xAA; 10]);
        assert!(matches!(
            read_pcap(&capture),
            Err(PcapError::SnaplenTruncated { record: 1, .. })
        ));

        // incl_len > orig_len is malformed, not truncation.
        let mut bogus = snaplen_truncated_fixture(Codec { big: false }, false);
        // Swap incl/orig in the record header (offsets 24+8 and 24+12).
        bogus[32..36].copy_from_slice(&codec.put_u32(64));
        bogus[36..40].copy_from_slice(&codec.put_u32(32));
        assert!(matches!(read_pcap(&bogus), Err(PcapError::Unsupported(_))));
    }

    #[test]
    fn empty_captures_round_trip() {
        for precision in [TimestampPrecision::Micros, TimestampPrecision::Nanos] {
            let mut buffer = Vec::new();
            write_pcap(&mut buffer, &[], precision, Endianness::Little).unwrap();
            assert!(read_pcap(&buffer).unwrap().is_empty());
        }
        let mut buffer = Vec::new();
        write_pcapng(&mut buffer, &[], Endianness::Big).unwrap();
        assert!(read_pcap(&buffer).unwrap().is_empty());
    }

    #[test]
    fn malformed_captures_are_rejected() {
        assert_eq!(read_pcap(&[]), Err(PcapError::Truncated("file header")));
        assert!(matches!(
            read_pcap(&[0x12, 0x34, 0x56, 0x78, 0, 0, 0, 0]),
            Err(PcapError::BadMagic(_))
        ));
        // A valid header followed by a truncated record.
        let mut buffer = Vec::new();
        write_pcap(
            &mut buffer,
            &sample_packets()[..1],
            TimestampPrecision::Micros,
            Endianness::Little,
        )
        .unwrap();
        buffer.truncate(buffer.len() - 5);
        assert!(matches!(read_pcap(&buffer), Err(PcapError::Truncated(_))));
        // Non-Ethernet link type.
        let codec = Codec { big: false };
        let mut weird = Vec::new();
        weird.extend_from_slice(&codec.put_u32(MAGIC_MICROS));
        weird.extend_from_slice(&[0u8; 16]);
        weird.extend_from_slice(&codec.put_u32(101)); // LINKTYPE_RAW
        assert!(matches!(read_pcap(&weird), Err(PcapError::Unsupported(_))));
    }

    #[test]
    fn file_round_trip() {
        let packets = sample_packets();
        let dir = std::env::temp_dir().join("menshen-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.pcap");
        write_pcap_file(
            &path,
            &packets,
            TimestampPrecision::Micros,
            Endianness::Little,
        )
        .unwrap();
        assert_identical(&read_pcap_file(&path).unwrap(), &packets);
        let ng_path = dir.join("round_trip.pcapng");
        write_pcapng_file(&ng_path, &packets, Endianness::Little).unwrap();
        assert_identical(&read_pcap_file(&ng_path).unwrap(), &packets);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
