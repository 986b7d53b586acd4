//! The little-endian binary codec shared by the WAL and checkpoint
//! formats, plus the CRC32 (IEEE) checksum both use for frame
//! integrity.
//!
//! The build environment resolves `serde` to a JSON-only shim, so the
//! durability formats are encoded by hand: fixed-width little-endian
//! integers, `f64` as its IEEE-754 bit pattern, and `u32`
//! length-prefixed sequences. Decoding is bounds-checked everywhere —
//! a truncated or bit-flipped buffer yields [`CodecError`], never a
//! panic or an out-of-bounds read.

use gvex_graph::Graph;
use gvex_pattern::Pattern;

/// Decode failure: the buffer is shorter than the encoding claims or a
/// tag/count is out of its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an optional `u16` (presence byte + value).
    pub fn opt_u16(&mut self, v: Option<u16>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u16(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends a [`Graph`]: node types + features, then each undirected
    /// edge once.
    pub fn graph(&mut self, g: &Graph) {
        self.u32(g.num_nodes() as u32);
        self.u32(g.feature_dim() as u32);
        for v in 0..g.num_nodes() as u32 {
            self.u16(g.node_type(v));
            for &x in g.features().row(v as usize) {
                self.f64(x);
            }
        }
        let edges: Vec<_> = g.edges().collect();
        self.u32(edges.len() as u32);
        for (u, v, t) in edges {
            self.u32(u);
            self.u32(v);
            self.u16(t);
        }
    }

    /// Appends a [`Pattern`] (node types + edges).
    pub fn pattern(&mut self, p: &Pattern) {
        self.u32(p.num_nodes() as u32);
        for v in 0..p.num_nodes() as u32 {
            self.u16(p.node_type(v));
        }
        let edges: Vec<_> = p.edges().collect();
        self.u32(edges.len() as u32);
        for (u, v, t) in edges {
            self.u32(u);
            self.u32(v);
            self.u16(t);
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CodecError(format!("buffer underrun at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting bytes other than 0/1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2-byte slice")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional `u16`.
    pub fn opt_u16(&mut self) -> Result<Option<u16>, CodecError> {
        Ok(if self.bool()? { Some(self.u16()?) } else { None })
    }

    /// Reads a sequence length, capped against the bytes actually
    /// remaining (each element needs at least `min_elem_bytes`), so a
    /// corrupt length cannot drive an allocation far past the buffer.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CodecError(format!(
                "sequence length {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }

    /// Reads a [`Graph`] written by [`Enc::graph`].
    pub fn graph(&mut self) -> Result<Graph, CodecError> {
        let n = self.u32()? as usize;
        let dim = self.u32()? as usize;
        // Each node carries a u16 type plus `dim` f64 features.
        let per_node = 2 + 8 * dim;
        if n.saturating_mul(per_node) > self.buf.len() - self.pos {
            return Err(CodecError(format!("graph claims {n} nodes past end of buffer")));
        }
        let mut g = Graph::with_capacity(dim, n);
        let mut feats = vec![0.0f64; dim];
        for _ in 0..n {
            let ty = self.u16()?;
            for f in feats.iter_mut() {
                *f = self.f64()?;
            }
            g.add_node(ty, &feats);
        }
        let m = self.len(10)?;
        for _ in 0..m {
            let u = self.u32()?;
            let v = self.u32()?;
            let t = self.u16()?;
            if u as usize >= n || v as usize >= n {
                return Err(CodecError(format!("edge ({u}, {v}) names a node outside 0..{n}")));
            }
            g.add_edge(u, v, t);
        }
        Ok(g)
    }

    /// Reads a [`Pattern`] written by [`Enc::pattern`].
    pub fn pattern(&mut self) -> Result<Pattern, CodecError> {
        let n = self.len(2)?;
        let mut types = Vec::with_capacity(n);
        for _ in 0..n {
            types.push(self.u16()?);
        }
        let m = self.len(10)?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = self.u32()?;
            let v = self.u32()?;
            let t = self.u16()?;
            if u as usize >= n || v as usize >= n {
                return Err(CodecError(format!("pattern edge ({u}, {v}) outside 0..{n}")));
            }
            edges.push((u, v, t));
        }
        Ok(Pattern::new(&types, &edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u16(65_000);
        e.u32(4_000_000_000);
        e.u64(u64::MAX - 1);
        e.f64(-1.25e300);
        e.opt_u16(None);
        e.opt_u16(Some(42));
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 65_000);
        assert_eq!(d.u32().unwrap(), 4_000_000_000);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap(), -1.25e300);
        assert_eq!(d.opt_u16().unwrap(), None);
        assert_eq!(d.opt_u16().unwrap(), Some(42));
        assert!(d.is_done());
    }

    #[test]
    fn graph_round_trip() {
        let mut g = Graph::new(2);
        g.add_node(3, &[0.5, -1.0]);
        g.add_node(4, &[1.5, 2.0]);
        g.add_node(3, &[0.0, 0.25]);
        g.add_edge(0, 1, 9);
        g.add_edge(1, 2, 8);
        let mut e = Enc::new();
        e.graph(&g);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        let h = d.graph().unwrap();
        assert!(d.is_done());
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.feature_dim(), 2);
        for v in 0..3u32 {
            assert_eq!(h.node_type(v), g.node_type(v));
            assert_eq!(h.features().row(v as usize), g.features().row(v as usize));
        }
        assert_eq!(h.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn pattern_round_trip() {
        let p = Pattern::new(&[1, 2, 2], &[(0, 1, 0), (1, 2, 5)]);
        let mut e = Enc::new();
        e.pattern(&p);
        let bytes = e.finish();
        let q = Dec::new(&bytes).pattern().unwrap();
        assert_eq!(q.num_nodes(), 3);
        assert_eq!(q.canon_key(), p.canon_key());
        assert_eq!(q.edges().collect::<Vec<_>>(), p.edges().collect::<Vec<_>>());
    }

    #[test]
    fn truncated_buffers_error_instead_of_panicking() {
        let mut e = Enc::new();
        let mut g = Graph::new(1);
        g.add_node(0, &[1.0]);
        e.graph(&g);
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            assert!(Dec::new(&bytes[..cut]).graph().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // A graph header claiming u32::MAX nodes over a tiny buffer.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        e.u32(4);
        let bytes = e.finish();
        assert!(Dec::new(&bytes).graph().is_err());
    }
}
