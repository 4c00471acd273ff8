//! Generic tiling and partitioning utilities (paper Section 3.2.6).
//!
//! Tiling is used for three purposes in the CINM flow: exposing parallelism
//! (one tile per processing unit on CNM targets), improving local-memory
//! locality (WRAM blocking), and *compulsory* tiling to fit operands onto
//! fixed-size CIM crossbar arrays. The same transformation is parameterised
//! by a [`TileShape`]; Figure 9 of the paper contrasts box and rectangular
//! tilings of a matmul iteration space.

/// The shape of the tiles a 2-D iteration space is partitioned into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileShape {
    /// Square/box tiles `tile × tile` (Figure 9b).
    Box {
        /// Edge length of the tile.
        tile: usize,
    },
    /// Rectangular tiles `rows × cols` (Figure 9c).
    Rectangular {
        /// Tile height.
        rows: usize,
        /// Tile width.
        cols: usize,
    },
    /// Row-band tiles spanning the full width (the DPU workload split of
    /// Figure 9a).
    RowBand {
        /// Rows per band.
        rows: usize,
    },
}

impl TileShape {
    /// The `(rows, cols)` extent of one tile given the iteration-space width.
    pub fn extent(&self, space_cols: usize) -> (usize, usize) {
        match *self {
            TileShape::Box { tile } => (tile, tile),
            TileShape::Rectangular { rows, cols } => (rows, cols),
            TileShape::RowBand { rows } => (rows, space_cols),
        }
    }
}

/// One tile of a 2-D iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First row covered by the tile.
    pub row: usize,
    /// First column covered by the tile.
    pub col: usize,
    /// Number of rows covered (may be smaller at the boundary).
    pub rows: usize,
    /// Number of columns covered (may be smaller at the boundary).
    pub cols: usize,
}

impl Tile {
    /// Number of iteration points covered by the tile.
    pub fn points(&self) -> usize {
        self.rows * self.cols
    }
}

/// Partitions an `m × n` iteration space into tiles of the given shape,
/// in row-major tile order. Boundary tiles are clipped.
///
/// # Panics
///
/// Panics if the tile shape has a zero extent.
pub fn tile_2d(m: usize, n: usize, shape: TileShape) -> Vec<Tile> {
    let (tr, tc) = shape.extent(n);
    assert!(tr > 0 && tc > 0, "tile extents must be positive");
    let mut tiles = Vec::new();
    let mut row = 0;
    while row < m {
        let rows = tr.min(m - row);
        let mut col = 0;
        while col < n {
            let cols = tc.min(n - col);
            tiles.push(Tile {
                row,
                col,
                rows,
                cols,
            });
            col += tc;
        }
        row += tr;
    }
    tiles
}

/// Splits a flat iteration count into `parts` contiguous chunks whose sizes
/// differ by at most one element (the DPU workload split).
pub fn split_even(total: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "cannot split into zero parts");
    let base = total / parts;
    let rem = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// Chooses the per-DPU WRAM tile size (in elements) for the locality
/// optimisation: a third of WRAM per operand stream, divided among tasklets,
/// rounded down to a multiple of 64 elements and at least 64.
pub fn wram_tile_elems(wram_bytes: usize, tasklets: usize, elem_bytes: usize) -> usize {
    let per_stream = wram_bytes / 3 / tasklets.max(1) / elem_bytes.max(1);
    (per_stream / 64 * 64).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_tiling_covers_space_exactly_once() {
        let tiles = tile_2d(100, 70, TileShape::Box { tile: 32 });
        let mut covered = vec![false; 100 * 70];
        for t in &tiles {
            for r in t.row..t.row + t.rows {
                for c in t.col..t.col + t.cols {
                    assert!(!covered[r * 70 + c], "point ({r},{c}) covered twice");
                    covered[r * 70 + c] = true;
                }
            }
        }
        assert!(covered.iter().all(|&x| x), "some points not covered");
        let total: usize = tiles.iter().map(Tile::points).sum();
        assert_eq!(total, 100 * 70);
    }

    #[test]
    fn tile_shapes_produce_expected_counts() {
        assert_eq!(tile_2d(64, 64, TileShape::Box { tile: 16 }).len(), 16);
        assert_eq!(
            tile_2d(64, 64, TileShape::Rectangular { rows: 16, cols: 64 }).len(),
            4
        );
        assert_eq!(tile_2d(64, 64, TileShape::RowBand { rows: 8 }).len(), 8);
    }

    #[test]
    fn split_even_is_balanced_and_complete() {
        let parts = split_even(1000, 7);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 1000);
        let max = parts.iter().map(|(_, l)| *l).max().unwrap();
        let min = parts.iter().map(|(_, l)| *l).min().unwrap();
        assert!(max - min <= 1);
        // Chunks are contiguous.
        let mut pos = 0;
        for (start, len) in parts {
            assert_eq!(start, pos);
            pos += len;
        }
    }

    #[test]
    fn wram_tile_is_bounded_and_aligned() {
        let t = wram_tile_elems(64 * 1024, 16, 4);
        assert!(t >= 64);
        assert_eq!(t % 64, 0);
        assert!(t * 4 * 16 * 3 <= 64 * 1024 + 64 * 4 * 16 * 3);
        // One tasklet gets a bigger tile than sixteen.
        assert!(wram_tile_elems(64 * 1024, 1, 4) >= wram_tile_elems(64 * 1024, 16, 4));
    }
}
