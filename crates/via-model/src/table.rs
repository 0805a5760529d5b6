//! A dense row-major table that carries its own stride.
//!
//! Static per-world data — great-circle distances, fiber-bound RTTs,
//! inter-relay backbone metrics — is tabulated once and read on the per-call
//! path. Keeping the column count beside the cells (instead of recovering it
//! from `cells.len()` at the read site) means a table can never be indexed
//! with the wrong stride, and an out-of-range column is rejected rather than
//! silently aliasing into the next row.

/// A `rows × cols` table stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Table<T> {
    rows: usize,
    cols: usize,
    cells: Vec<T>,
}

impl<T> Table<T> {
    /// Builds the table by evaluating `f(row, col)` for every cell, row by
    /// row.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut cells = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                cells.push(f(r, c));
            }
        }
        Self::from_cells(rows, cols, cells)
    }

    /// Wraps row-major `cells` as a `rows × cols` table.
    ///
    /// # Panics
    /// If `cells.len() != rows * cols`.
    pub fn from_cells(rows: usize, cols: usize, cells: Vec<T>) -> Self {
        assert_eq!(rows * cols, cells.len(), "table shape mismatch");
        Self { rows, cols, cells }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the row stride).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    ///
    /// # Panics
    /// If `row` is out of range.
    pub fn row(&self, row: usize) -> &[T] {
        &self.cells[row * self.cols..(row + 1) * self.cols]
    }

    /// The cell at `(row, col)`, or `None` if either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        self.cells.get(row * self.cols + col)
    }
}

impl<T> std::ops::Index<(usize, usize)> for Table<T> {
    type Output = T;

    /// # Panics
    /// If either index is out of range.
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(col < self.cols, "column {col} out of range {}", self.cols);
        &self.cells[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_addressed_by_row_and_column() {
        let t = Table::from_fn(3, 5, |r, c| r * 10 + c);
        assert_eq!((t.rows(), t.cols()), (3, 5));
        assert_eq!(t[(2, 4)], 24);
        assert_eq!(t.row(1), &[10, 11, 12, 13, 14]);
        assert_eq!(t.get(0, 3), Some(&3));
    }

    #[test]
    fn out_of_range_never_aliases_into_another_row() {
        let t = Table::from_fn(3, 5, |r, c| r * 10 + c);
        // Column 5 of row 0 would be cell (1, 0) under raw stride math.
        assert_eq!(t.get(0, 5), None);
        assert_eq!(t.get(3, 0), None);
        assert_eq!(t.get(usize::MAX / 8, 1), None);
    }

    #[test]
    #[should_panic(expected = "column 5 out of range")]
    fn index_rejects_an_out_of_range_column() {
        let t = Table::from_fn(3, 5, |r, c| r * 10 + c);
        let _ = t[(0, 5)];
    }

    #[test]
    #[should_panic(expected = "table shape mismatch")]
    fn from_cells_rejects_a_non_rectangular_length() {
        let _ = Table::from_cells(3, 3, vec![0u8; 10]);
    }

    #[test]
    fn empty_tables_are_well_formed() {
        let t: Table<u8> = Table::from_fn(0, 0, |_, _| 0);
        assert_eq!((t.rows(), t.cols()), (0, 0));
        assert_eq!(t.get(0, 0), None);
        let t: Table<u8> = Table::from_fn(4, 0, |_, _| 0);
        assert_eq!((t.rows(), t.cols()), (4, 0));
        assert_eq!(t.get(0, 0), None);
    }
}
