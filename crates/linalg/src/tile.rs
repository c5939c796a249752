//! Dense column-major `f64` matrix tiles.
//!
//! `Tile` is the datum flowing through the linear-algebra TTGs. It opts into
//! the split-metadata wire protocol: the metadata is the shape, the payload
//! is the contiguous element buffer, exposed in place — exactly the
//! `MatrixTile` example of the paper's Fig. 4.

use ttg_comm::{bytes_to_f64s, f64s_as_bytes, ReadBuf, Wire, WireError, WireKind, WriteBuf};

/// A dense column-major matrix tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tile {
    /// Zero tile of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tile {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tile from a column-major buffer.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tile { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column-major element buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable column-major element buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor (row, col).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Element setter (row, col).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Frobenius norm.
    pub(crate) fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Per-element Frobenius norm (used by the paper's block-sparse drop
    /// criterion: tiles below 1e-8 per element are discarded).
    pub fn norm_fro_per_element(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.norm_fro() / (self.data.len() as f64).sqrt()
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Tile) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Maximum absolute element difference to `other`.
    pub fn max_abs_diff(&self, other: &Tile) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Tile {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Tile {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i + j * self.rows]
    }
}

impl Wire for Tile {
    const KIND: WireKind = WireKind::SplitMd;

    fn encode(&self, b: &mut WriteBuf) {
        b.put_usize(self.rows);
        b.put_usize(self.cols);
        f64::encode_slice(&self.data, b);
    }

    fn decode(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        let data = f64::decode_slice(r, rows.saturating_mul(cols))?;
        Ok(Tile { rows, cols, data })
    }

    fn wire_size(&self) -> usize {
        16 + self.data.len() * 8
    }

    fn split_encode_md(&self, b: &mut WriteBuf) {
        b.put_usize(self.rows);
        b.put_usize(self.cols);
    }

    fn split_decode_md(r: &mut ReadBuf<'_>) -> Result<Self, WireError> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        Ok(Tile {
            rows,
            cols,
            data: Vec::new(),
        })
    }

    fn split_bytes(&self) -> Option<&[u8]> {
        f64s_as_bytes(&self.data)
    }

    fn split_attach(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let want = self.rows.saturating_mul(self.cols).saturating_mul(8);
        if bytes.len() != want {
            return Err(WireError::new(format!(
                "payload of {} B for a {}x{} tile",
                bytes.len(),
                self.rows,
                self.cols
            )));
        }
        self.data = bytes_to_f64s(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test oracles for this crate's kernel tests.
    impl Tile {
        /// Identity-like tile (1.0 on the diagonal).
        pub(crate) fn identity(n: usize) -> Self {
            let mut t = Tile::zeros(n, n);
            for i in 0..n {
                t[(i, i)] = 1.0;
            }
            t
        }

        /// Transposed copy.
        pub(crate) fn transpose(&self) -> Tile {
            let mut t = Tile::zeros(self.cols, self.rows);
            for j in 0..self.cols {
                for i in 0..self.rows {
                    t.set(j, i, self.get(i, j));
                }
            }
            t
        }
    }

    #[test]
    fn index_and_shape() {
        let mut t = Tile::zeros(3, 2);
        t[(2, 1)] = 5.0;
        assert_eq!(t.get(2, 1), 5.0);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        // Column-major: element (2,1) sits at 2 + 1*3 = 5.
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn norms() {
        let t = Tile::from_data(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((t.norm_fro() - 5.0).abs() < 1e-12);
        assert!((t.norm_fro_per_element() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tile::from_data(2, 3, (0..6).map(|x| x as f64).collect());
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().get(1, 0), t.get(0, 1));
    }

    #[test]
    fn wire_inline_roundtrip() {
        let t = Tile::from_data(3, 2, (0..6).map(|x| x as f64 * 1.5).collect());
        let bytes = ttg_comm::to_bytes(&t);
        assert_eq!(bytes.len(), t.wire_size());
        let u: Tile = ttg_comm::from_bytes(&bytes).unwrap();
        assert_eq!(t, u);
    }

    #[test]
    fn wire_splitmd_roundtrip() {
        let t = Tile::from_data(4, 4, (0..16).map(|x| x as f64).collect());
        let mut md = WriteBuf::new();
        t.split_encode_md(&mut md);
        let payload = t.split_bytes().unwrap();
        let md_bytes = md.into_vec();
        assert!(md_bytes.len() < 32, "metadata stays eager-sized");
        let mut r = ReadBuf::new(&md_bytes);
        let mut u = Tile::split_decode_md(&mut r).unwrap();
        u.split_attach(payload).unwrap();
        assert_eq!(t, u);
    }

    #[test]
    fn a_payload_that_disagrees_with_the_shape_is_an_error() {
        let mut md = WriteBuf::new();
        Tile::zeros(2, 2).split_encode_md(&mut md);
        let md = md.into_vec();
        for len in [0, 24, 40] {
            let mut u = Tile::split_decode_md(&mut ReadBuf::new(&md)).unwrap();
            let err = u.split_attach(&vec![0u8; len]).unwrap_err();
            assert!(err
                .to_string()
                .ends_with(&format!("payload of {len} B for a 2x2 tile")));
        }
    }

    #[test]
    fn arithmetic() {
        let mut a = Tile::identity(2);
        let b = Tile::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a, Tile::from_data(2, 2, vec![2.0, 2.0, 3.0, 5.0]));
    }
}
