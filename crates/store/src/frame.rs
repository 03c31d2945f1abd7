//! The checksummed record framing shared by the WAL and segment files.
//!
//! Every durable record — a stored archive, one appended check-in, or a
//! tombstone — is one frame:
//!
//! ```text
//! +------+----+---------+----------+-----------+-----------+---------+
//! | 0xA5 | op | key_len | data_len | key bytes | data ...  |  crc64  |
//! | 1 B  | 1B | u32 LE  | u32 LE   | key_len B | data_len B| u64 LE  |
//! +------+----+---------+----------+-----------+-----------+---------+
//! ```
//!
//! For a store record (`op = 1`) the data is a 4-byte little-endian
//! revision count followed by the archive's `,v` serialization (the
//! revision count lets recovery account stats without parsing every
//! archive body). A tombstone (`op = 2`) carries no data. An append
//! record (`op = 3`) is one check-in on top of the key's previous
//! record:
//!
//! ```text
//! revisions u32 | emit_len u32 | date u64 | author_len u32 | log_len u32
//! | delta_len u32 | author | log | reverse delta (diff -n) | head text
//! ```
//!
//! `revisions` is the count after the check-in, which is also the new
//! revision's number, and `emit_len` the length of the resulting
//! archive's `,v` text, so recovery accounts stats without parsing here
//! too. The trailing checksum is FNV-1a over everything between the
//! magic byte and the checksum itself, so a torn append — the only
//! in-file damage a crashed append-only writer can produce — is detected
//! at the exact frame where the tear begins, and recovery truncates from
//! there (the prefix-consistency invariant, DESIGN.md §4i).

use aide_util::checksum::fnv1a64;

/// Frame magic byte: catches scans that drift off frame boundaries.
pub const MAGIC: u8 = 0xA5;
/// Op code: the frame's data is an archive record.
pub const OP_STORE: u8 = 1;
/// Op code: the key was removed; the frame masks any older record.
pub const OP_REMOVE: u8 = 2;
/// Op code: the frame's data is one check-in appended to the key's
/// record chain.
pub const OP_APPEND: u8 = 3;

/// Fixed bytes before the key: magic, op, key_len, data_len.
pub const HEADER_LEN: usize = 1 + 1 + 4 + 4;
/// Fixed bytes after the data: the FNV-1a checksum.
pub const TRAILER_LEN: usize = 8;
/// Fixed bytes of an append record's data before its strings.
const APPEND_FIXED: usize = 4 + 4 + 8 + 4 + 4 + 4;

/// Sanity cap on key length: no URL is this long; a larger value in a
/// header means we are reading garbage.
const MAX_KEY_LEN: u32 = 1 << 20;
/// Sanity cap on record payloads (256 MiB per archive).
const MAX_DATA_LEN: u32 = 1 << 28;

/// What one frame records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record<'a> {
    /// A whole archive: its revision count and `,v` text.
    Store {
        /// Revisions in the archive.
        revisions: u32,
        /// The archive's `,v` serialization.
        text: &'a str,
    },
    /// One check-in on top of the key's previous record.
    Append(Increment<'a>),
    /// The key was removed.
    Remove,
}

/// The body of an [`OP_APPEND`] frame: everything needed to replay one
/// check-in onto the archive it extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Increment<'a> {
    /// Revision count after the check-in — the new revision's number.
    pub revisions: u32,
    /// Length of the resulting archive's `,v` text.
    pub emit_len: u32,
    /// Check-in date (seconds since the epoch).
    pub date: u64,
    /// Who checked the revision in.
    pub author: &'a str,
    /// Its log message.
    pub log: &'a str,
    /// The reverse delta recovering the previous head, in `diff -n`
    /// syntax.
    pub delta: &'a str,
    /// The new head text.
    pub head: &'a str,
}

/// One decoded frame, borrowing the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// [`OP_STORE`], [`OP_REMOVE`] or [`OP_APPEND`].
    pub op: u8,
    /// The repository key.
    pub key: &'a str,
    /// Payload (see the module docs; empty for tombstones).
    pub data: &'a [u8],
    /// Total encoded length of this frame in bytes.
    pub len: usize,
}

/// Why a frame failed to decode. Any variant at offset `o` of a file
/// means bytes `o..` are a torn tail (or corruption) — nothing beyond
/// the failure point can be trusted, because lengths come from the
/// frame itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a complete frame.
    Truncated,
    /// First byte is not [`MAGIC`].
    BadMagic,
    /// Unknown op code.
    BadOp,
    /// A length field exceeds its sanity cap.
    BadLength,
    /// The checksum does not match the bytes.
    BadCrc,
    /// The key bytes are not UTF-8.
    BadKey,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::Truncated => "truncated frame",
            FrameError::BadMagic => "bad frame magic",
            FrameError::BadOp => "bad frame op",
            FrameError::BadLength => "frame length exceeds sanity cap",
            FrameError::BadCrc => "frame checksum mismatch",
            FrameError::BadKey => "frame key is not UTF-8",
        };
        f.write_str(s)
    }
}

fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Encodes one frame, writing header, key and every payload part
/// straight into one buffer.
pub fn encode(key: &str, record: &Record<'_>) -> Vec<u8> {
    let (op, data_len) = match record {
        Record::Store { text, .. } => (OP_STORE, 4 + text.len()),
        Record::Append(inc) => (
            OP_APPEND,
            APPEND_FIXED + inc.author.len() + inc.log.len() + inc.delta.len() + inc.head.len(),
        ),
        Record::Remove => (OP_REMOVE, 0),
    };
    let mut out = Vec::with_capacity(encoded_len(key, data_len));
    out.push(MAGIC);
    out.push(op);
    put_u32(&mut out, key.len());
    put_u32(&mut out, data_len);
    out.extend_from_slice(key.as_bytes());
    match record {
        Record::Store { revisions, text } => {
            out.extend_from_slice(&revisions.to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        Record::Append(inc) => {
            out.extend_from_slice(&inc.revisions.to_le_bytes());
            out.extend_from_slice(&inc.emit_len.to_le_bytes());
            out.extend_from_slice(&inc.date.to_le_bytes());
            put_u32(&mut out, inc.author.len());
            put_u32(&mut out, inc.log.len());
            put_u32(&mut out, inc.delta.len());
            for part in [inc.author, inc.log, inc.delta, inc.head] {
                out.extend_from_slice(part.as_bytes());
            }
        }
        Record::Remove => {}
    }
    let crc = fnv1a64(&out[1..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Total encoded size of a frame for `key` with `data_len` payload bytes.
pub fn encoded_len(key: &str, data_len: usize) -> usize {
    HEADER_LEN + key.len() + data_len + TRAILER_LEN
}

fn read_u32(buf: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Decodes the frame starting at the beginning of `buf`.
pub fn decode(buf: &[u8]) -> Result<Frame<'_>, FrameError> {
    if buf.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::Truncated);
    }
    if buf[0] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let op = buf[1];
    if !matches!(op, OP_STORE | OP_REMOVE | OP_APPEND) {
        return Err(FrameError::BadOp);
    }
    let key_len = read_u32(buf, 2);
    let data_len = read_u32(buf, 6);
    if key_len > MAX_KEY_LEN || data_len > MAX_DATA_LEN {
        return Err(FrameError::BadLength);
    }
    let total = HEADER_LEN + key_len as usize + data_len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let crc_off = total - TRAILER_LEN;
    if fnv1a64(&buf[1..crc_off]) != read_u64(buf, crc_off) {
        return Err(FrameError::BadCrc);
    }
    let key = std::str::from_utf8(&buf[HEADER_LEN..HEADER_LEN + key_len as usize])
        .map_err(|_| FrameError::BadKey)?;
    Ok(Frame {
        op,
        key,
        data: &buf[HEADER_LEN + key_len as usize..crc_off],
        len: total,
    })
}

impl<'a> Frame<'a> {
    /// The revision count and `,v` length this frame leaves its key
    /// with, read from the fixed fields alone; `None` for a tombstone or
    /// a payload too short to hold them.
    pub fn counts(&self) -> Option<(u32, u32)> {
        match self.op {
            OP_STORE if self.data.len() >= 4 => {
                Some((read_u32(self.data, 0), (self.data.len() - 4) as u32))
            }
            OP_APPEND if self.data.len() >= 8 => {
                Some((read_u32(self.data, 0), read_u32(self.data, 4)))
            }
            _ => None,
        }
    }

    /// Decodes the payload.
    pub fn record(&self) -> Result<Record<'a>, FrameError> {
        match self.op {
            OP_STORE => {
                let (revisions, text) = split_payload(self.data)?;
                Ok(Record::Store { revisions, text })
            }
            OP_APPEND => split_increment(self.data).map(Record::Append),
            _ => Ok(Record::Remove),
        }
    }
}

/// Iterates the frames of a whole file image, yielding each frame with
/// its byte offset; stops at the first undecodable byte and reports the
/// clean prefix length (`== buf.len()` when the file is whole).
pub fn scan(buf: &[u8]) -> (Vec<(u64, Frame<'_>)>, usize, Option<FrameError>) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        match decode(&buf[off..]) {
            Ok(f) => {
                let len = f.len;
                frames.push((off as u64, f));
                off += len;
            }
            Err(e) => return (frames, off, Some(e)),
        }
    }
    (frames, off, None)
}

/// Splits a store frame's payload back into (revisions, `,v` text).
pub fn split_payload(data: &[u8]) -> Result<(u32, &str), FrameError> {
    if data.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let revisions = read_u32(data, 0);
    let text = std::str::from_utf8(&data[4..]).map_err(|_| FrameError::BadKey)?;
    Ok((revisions, text))
}

/// Splits an append frame's payload into its [`Increment`].
fn split_increment(data: &[u8]) -> Result<Increment<'_>, FrameError> {
    if data.len() < APPEND_FIXED {
        return Err(FrameError::Truncated);
    }
    let lens = [
        read_u32(data, 16) as usize,
        read_u32(data, 20) as usize,
        read_u32(data, 24) as usize,
    ];
    let mut strs = [""; 4];
    let mut at = APPEND_FIXED;
    for (i, slot) in strs.iter_mut().enumerate() {
        let end = match lens.get(i) {
            Some(&len) => at.checked_add(len).ok_or(FrameError::BadLength)?,
            None => data.len(),
        };
        let bytes = data.get(at..end).ok_or(FrameError::Truncated)?;
        *slot = std::str::from_utf8(bytes).map_err(|_| FrameError::BadKey)?;
        at = end;
    }
    let [author, log, delta, head] = strs;
    Ok(Increment {
        revisions: read_u32(data, 0),
        emit_len: read_u32(data, 4),
        date: read_u64(data, 8),
        author,
        log,
        delta,
        head,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(revisions: u32, text: &str) -> Record<'_> {
        Record::Store { revisions, text }
    }

    fn increment() -> Increment<'static> {
        Increment {
            revisions: 7,
            emit_len: 1234,
            date: 812_000_000,
            author: "fred@research.att.com",
            log: "checked in by fred",
            delta: "d2 1\na1 1\nold line\n",
            head: "new head\nno final newline",
        }
    }

    #[test]
    fn roundtrip_store_and_tombstone() {
        let buf = encode("http://h/p", &store(3, "head 1.3\ntext\n"));
        let f = decode(&buf).unwrap();
        assert_eq!(f.op, OP_STORE);
        assert_eq!(f.key, "http://h/p");
        assert_eq!(f.len, buf.len());
        assert_eq!(f.len, encoded_len("http://h/p", f.data.len()));
        let (revs, text) = split_payload(f.data).unwrap();
        assert_eq!(revs, 3);
        assert_eq!(text, "head 1.3\ntext\n");
        assert_eq!(f.counts(), Some((3, 14)));
        assert_eq!(f.record().unwrap(), store(3, "head 1.3\ntext\n"));

        let inc = increment();
        let buf = encode("k", &Record::Append(inc));
        let f = decode(&buf).unwrap();
        assert_eq!(f.op, OP_APPEND);
        assert_eq!(f.counts(), Some((7, 1234)));
        assert_eq!(f.record().unwrap(), Record::Append(inc));

        let buf = encode("k", &Record::Remove);
        let t = decode(&buf).unwrap();
        assert_eq!(t.op, OP_REMOVE);
        assert!(t.data.is_empty());
        assert_eq!(t.counts(), None);
    }

    /// The store record's bytes are the layout recovery has always
    /// read: revision count, then the `,v` text.
    #[test]
    fn store_record_layout_is_unchanged() {
        let buf = encode("k", &store(2, "v"));
        let mut expect = vec![
            MAGIC, OP_STORE, 1, 0, 0, 0, 5, 0, 0, 0, b'k', 2, 0, 0, 0, b'v',
        ];
        let crc = fnv1a64(&expect[1..]);
        expect.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(buf, expect);
    }

    #[test]
    fn malformed_increment_lengths_are_errors_not_panics() {
        let mut data = encode("k", &Record::Append(increment()));
        let start = HEADER_LEN + 1;
        // Claim an author far longer than the payload.
        data[start + 16..start + 20].copy_from_slice(&u32::MAX.to_le_bytes());
        let payload = &data[start..data.len() - TRAILER_LEN];
        assert!(split_increment(payload).is_err());
        assert!(split_increment(&payload[..APPEND_FIXED - 1]).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        for buf in [
            encode("key", &store(1, "body\n")),
            encode("key", &Record::Append(increment())),
        ] {
            for i in 0..buf.len() {
                let mut bad = buf.clone();
                bad[i] ^= 0x40;
                assert!(
                    decode(&bad).is_err(),
                    "flip at byte {i} must not decode cleanly"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let buf = encode("key", &store(1, "body\n"));
        for keep in 0..buf.len() {
            assert!(decode(&buf[..keep]).is_err(), "prefix {keep} decoded");
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut buf = encode("a", &store(1, "x\n"));
        let first = buf.len();
        buf.extend_from_slice(&encode("b", &Record::Remove));
        let whole = buf.len();
        let (frames, clean, err) = scan(&buf);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].0, first as u64);
        assert_eq!(clean, whole);
        assert!(err.is_none());

        // Tear the second frame: scan keeps the first, reports the tear.
        let torn = &buf[..whole - 3];
        let (frames, clean, err) = scan(torn);
        assert_eq!(frames.len(), 1);
        assert_eq!(clean, first);
        assert_eq!(err, Some(FrameError::Truncated));
    }

    #[test]
    fn insane_lengths_are_rejected_not_allocated() {
        let mut buf = encode("k", &store(1, "x\n"));
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&buf), Err(FrameError::BadLength));
    }
}
