//! Dense row-major matrices and labelled point sets.

use std::fmt;

/// A dense, row-major matrix of `f64`.
///
/// Rows are the natural unit (a row = one data point), so the storage is
/// one contiguous `Vec<f64>` and [`Matrix::row`] is a cheap slice — the
/// cache-friendly layout the k-means assignment's "static data structures"
/// starter code uses.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Create from a flat row-major vector. Panics if the length is not
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data length must be rows*cols"
        );
        Self { data, rows, cols }
    }

    /// Create from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Number of rows (points).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (dimensions).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// The flat row-major backing store.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Hand over the backing store with its shape `(data, rows, cols)`, so
    /// a packed layout can reuse the allocation instead of copying it.
    pub(crate) fn into_parts(self) -> (Vec<f64>, usize, usize) {
        (self.data, self.rows, self.cols)
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Append a row. Panics if the width differs (unless the matrix is
    /// empty, in which case the width is adopted).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// A new matrix containing the selected rows, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            out.extend_from_slice(self.row(i));
        }
        Self {
            data: out,
            rows: indices.len(),
            cols: self.cols,
        }
    }

    /// Squared Euclidean distance between row `i` and an external point.
    #[inline]
    pub fn dist2_to(&self, i: usize, point: &[f64]) -> f64 {
        crate::kernels::dist2(self.row(i), point)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}×{})", self.rows, self.cols)
    }
}

/// A labelled point set: points plus one class label per point.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledDataset {
    /// The points, one per row.
    pub points: Matrix,
    /// Class label of each point, in `[0, classes)`.
    pub labels: Vec<u32>,
    /// Number of distinct classes.
    pub classes: u32,
}

impl LabeledDataset {
    /// Create a dataset, validating label range and length.
    pub fn new(points: Matrix, labels: Vec<u32>, classes: u32) -> Self {
        assert_eq!(points.rows(), labels.len(), "one label per point");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        Self {
            points,
            labels,
            classes,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Dimensionality of the points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.points.cols()
    }

    /// A new dataset containing the selected points.
    pub fn select(&self, indices: &[usize]) -> Self {
        Self {
            points: self.points.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            classes: self.classes,
        }
    }

    /// Per-class point counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes as usize];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn push_row_adopts_width() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn select_rows_reorders() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[2.0]);
        assert_eq!(s.row(1), &[0.0]);
    }

    #[test]
    fn squared_distance_basics() {
        use crate::kernels::dist2;
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn iter_rows_matches_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let collected: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], m.row(2));
    }

    #[test]
    fn labeled_dataset_validation() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let ds = LabeledDataset::new(m, vec![0, 1], 2);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dims(), 1);
        assert_eq!(ds.class_counts(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn labels_out_of_range_rejected() {
        let m = Matrix::from_rows(&[vec![0.0]]);
        LabeledDataset::new(m, vec![5], 2);
    }

    #[test]
    fn dataset_select() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let ds = LabeledDataset::new(m, vec![0, 1, 0], 2);
        let sub = ds.select(&[1, 2]);
        assert_eq!(sub.labels, vec![1, 0]);
        assert_eq!(sub.points.row(0), &[1.0]);
    }
}
