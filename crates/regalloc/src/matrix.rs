//! Dense symmetric bit-matrix adjacency for interference graphs.
//!
//! The allocator's interference graph used to be a `Vec<BTreeSet<u32>>` —
//! pointer-chasing and a node allocation per edge, in the hottest pass of
//! the whole pipeline (regalloc is the largest pass of the per-function
//! chain: about a quarter of `driver.pipeline_us` on the suite at 32
//! registers and over a third at 8, 26% and 36% in `promo-benchmark
//! --trace 1` runs). [`BitMatrix`] replaces it with one flat `Vec<u64>`
//! of `n` rows (`n` = virtual-register count): membership is a bit test,
//! "union a live set into a row" is a word-wise OR (the same kernel style as
//! `ir::DenseTagSet`), and the Briggs/George coalescing tests are word
//! operations against a mask of the significant nodes instead of walks
//! over tree nodes.
//!
//! Construction runs in two phases. While building, rows are filled with
//! *directed* bits via the raw word ops ([`or_row_words`], [`set_raw`],
//! [`clear_raw`]) with no degree upkeep; [`finalize_symmetric`] then
//! mirrors every bit and computes degrees in one sweep. After that, the
//! symmetric editing ops ([`insert_edge`], [`remove_edge`]) keep the
//! matrix and the degree vector consistent — that is what the coalescer's
//! evolving class-adjacency needs, and what a spill round's patch uses:
//! [`isolate`] drops a victim's edges, and [`grow`] adds nodes for the
//! temporaries without a rebuild.
//!
//! [`or_row_words`]: BitMatrix::or_row_words
//! [`set_raw`]: BitMatrix::set_raw
//! [`clear_raw`]: BitMatrix::clear_raw
//! [`finalize_symmetric`]: BitMatrix::finalize_symmetric
//! [`insert_edge`]: BitMatrix::insert_edge
//! [`remove_edge`]: BitMatrix::remove_edge
//! [`isolate`]: BitMatrix::isolate
//! [`grow`]: BitMatrix::grow

/// A square bit matrix over `n` nodes with per-node degree counts. Two
/// matrices are equal when they have the same nodes, bits and degrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    /// Words per row.
    stride: usize,
    /// Row-major bits: row `i` occupies `bits[i*stride .. (i+1)*stride]`.
    bits: Vec<u64>,
    /// Number of set bits per row; maintained by the symmetric editing
    /// ops, recomputed wholesale by [`BitMatrix::finalize_symmetric`].
    deg: Vec<u32>,
}

impl BitMatrix {
    /// An empty `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let stride = n.div_ceil(64);
        BitMatrix {
            n,
            stride,
            bits: vec![0; n * stride],
            deg: vec![0; n],
        }
    }

    /// Re-targets the matrix at `n` nodes, zeroing every bit and degree
    /// while reusing the backing allocations whenever the new size fits.
    /// Equivalent to `*self = BitMatrix::new(n)` without the frees/allocs —
    /// the scratch-arena path for per-function interference rebuilds.
    pub fn reset(&mut self, n: usize) {
        let stride = n.div_ceil(64);
        self.n = n;
        self.stride = stride;
        self.bits.clear();
        self.bits.resize(n * stride, 0);
        self.deg.clear();
        self.deg.resize(n, 0);
    }

    /// Copies `other`'s full state into `self`, reusing `self`'s backing
    /// allocations when they are large enough (the scratch replacement for
    /// `graph.clone()` per coalescing round).
    pub fn copy_from(&mut self, other: &BitMatrix) {
        self.n = other.n;
        self.stride = other.stride;
        self.bits.clear();
        self.bits.extend_from_slice(&other.bits);
        self.deg.clear();
        self.deg.extend_from_slice(&other.deg);
    }

    /// Adds nodes up to `n` (no edges), keeping every edge and degree.
    /// When the row stride grows, rows move up in place, last row first,
    /// so none is overwritten before it moves.
    pub fn grow(&mut self, n: usize) {
        debug_assert!(n >= self.n);
        let (old, stride) = (self.stride, n.div_ceil(64));
        self.bits.resize(n * stride, 0);
        if stride != old {
            for a in (0..self.n).rev() {
                self.bits.copy_within(a * old..(a + 1) * old, a * stride);
                self.bits[a * stride + old..(a + 1) * stride].fill(0);
            }
        }
        self.n = n;
        self.stride = stride;
        self.deg.resize(n, 0);
    }

    /// Removes every edge of `a`, keeping degrees consistent, and writes
    /// its former neighbors into `neighbors` in ascending order.
    pub fn isolate(&mut self, a: u32, neighbors: &mut Vec<u32>) {
        neighbors.clear();
        neighbors.extend(self.row_iter(a));
        for &n in neighbors.iter() {
            self.remove_edge(a, n);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, a: u32, b: u32) -> (usize, u64) {
        (a as usize * self.stride + b as usize / 64, 1u64 << (b % 64))
    }

    /// Bit test: is `b` set in `a`'s row?
    #[inline]
    pub fn contains(&self, a: u32, b: u32) -> bool {
        let (w, m) = self.idx(a, b);
        self.bits[w] & m != 0
    }

    /// Set-bit count of `a`'s row (its degree, once symmetric).
    #[inline]
    pub fn degree(&self, a: u32) -> usize {
        self.deg[a as usize] as usize
    }

    /// Sets the directed bit `a -> b` with no degree upkeep
    /// (construction phase only).
    pub fn set_raw(&mut self, a: u32, b: u32) {
        let (w, m) = self.idx(a, b);
        self.bits[w] |= m;
    }

    /// Clears the directed bit `a -> b` with no degree upkeep
    /// (construction phase only).
    pub fn clear_raw(&mut self, a: u32, b: u32) {
        let (w, m) = self.idx(a, b);
        self.bits[w] &= !m;
    }

    /// ORs a dense word slice (e.g. a liveness set's backing words) into
    /// row `a`. Shorter slices OR into the row's prefix.
    pub fn or_row_words(&mut self, a: u32, words: &[u64]) {
        let start = a as usize * self.stride;
        let k = words.len().min(self.stride);
        let row = &mut self.bits[start..start + k];
        for (dst, src) in row.iter_mut().zip(words) {
            *dst |= *src;
        }
    }

    /// Mirrors every directed bit (making the matrix symmetric) and
    /// recomputes all degrees. Call once at the end of construction.
    pub fn finalize_symmetric(&mut self) {
        for a in 0..self.n as u32 {
            let start = a as usize * self.stride;
            for wi in 0..self.stride {
                let mut w = self.bits[start + wi];
                while w != 0 {
                    let b = (wi * 64 + w.trailing_zeros() as usize) as u32;
                    w &= w - 1;
                    let (mw, mm) = self.idx(b, a);
                    self.bits[mw] |= mm;
                }
            }
        }
        for a in 0..self.n {
            let start = a * self.stride;
            self.deg[a] = self.bits[start..start + self.stride]
                .iter()
                .map(|w| w.count_ones())
                .sum();
        }
    }

    /// Inserts the undirected edge `{a, b}`, keeping degrees consistent.
    /// Self-edges are ignored. Returns true if the edge was new.
    pub fn insert_edge(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        let (w, m) = self.idx(a, b);
        if self.bits[w] & m != 0 {
            return false;
        }
        self.bits[w] |= m;
        self.deg[a as usize] += 1;
        let (w, m) = self.idx(b, a);
        self.bits[w] |= m;
        self.deg[b as usize] += 1;
        true
    }

    /// Removes the undirected edge `{a, b}`, keeping degrees consistent.
    /// Returns true if the edge existed.
    pub fn remove_edge(&mut self, a: u32, b: u32) -> bool {
        let (w, m) = self.idx(a, b);
        if self.bits[w] & m == 0 {
            return false;
        }
        self.bits[w] &= !m;
        self.deg[a as usize] -= 1;
        let (w, m) = self.idx(b, a);
        self.bits[w] &= !m;
        self.deg[b as usize] -= 1;
        true
    }

    /// Iterates the set bits of `a`'s row in ascending order.
    pub fn row_iter(&self, a: u32) -> RowIter<'_> {
        let start = a as usize * self.stride;
        RowIter {
            words: &self.bits[start..start + self.stride],
            wi: 0,
            current: if self.stride == 0 {
                0
            } else {
                self.bits[start]
            },
        }
    }

    /// Writes the nodes of degree ≥ `k` into `out`, one bit per node in
    /// the layout of a row: the significance mask the coalescing tests
    /// take. The caller keeps it current across symmetric edits.
    pub fn significant_into(&self, k: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.stride, 0);
        for (t, &d) in self.deg.iter().enumerate() {
            if d as usize >= k {
                out[t / 64] |= 1 << (t % 64);
            }
        }
    }

    /// The Briggs conservative-coalescing test: true if the union of
    /// `a`'s and `b`'s rows contains fewer than `k` nodes of
    /// `significant` (the nodes of degree ≥ `k`, from
    /// [`significant_into`](Self::significant_into)). Word-wise, with an
    /// early exit.
    pub fn briggs_union_ok(&self, a: u32, b: u32, k: usize, significant: &[u64]) -> bool {
        let sa = a as usize * self.stride;
        let sb = b as usize * self.stride;
        let mut count = 0usize;
        for (wi, &sig) in significant.iter().enumerate() {
            count += ((self.bits[sa + wi] | self.bits[sb + wi]) & sig).count_ones() as usize;
            if count >= k {
                return false;
            }
        }
        true
    }

    /// The George conservative-coalescing test: true if every neighbor of
    /// `x` is either outside `significant` or already a neighbor of `y`.
    /// Word-wise.
    pub fn george_ok(&self, x: u32, y: u32, significant: &[u64]) -> bool {
        let sx = x as usize * self.stride;
        let sy = y as usize * self.stride;
        significant
            .iter()
            .enumerate()
            .all(|(wi, &sig)| self.bits[sx + wi] & sig & !self.bits[sy + wi] == 0)
    }
}

/// Ascending iterator over one row's set bits.
pub struct RowIter<'a> {
    words: &'a [u64],
    wi: usize,
    current: u64,
}

impl Iterator for RowIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.wi * 64 + bit) as u32);
            }
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.current = self.words[self.wi];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let m = BitMatrix::new(0);
        assert!(m.is_empty());
        let m = BitMatrix::new(5);
        assert_eq!(m.len(), 5);
        assert!(!m.contains(0, 1));
        assert_eq!(m.degree(3), 0);
    }

    #[test]
    fn symmetric_editing_keeps_degrees() {
        let mut m = BitMatrix::new(130);
        assert!(m.insert_edge(0, 129));
        assert!(!m.insert_edge(129, 0), "already present (mirrored)");
        assert!(m.contains(0, 129) && m.contains(129, 0));
        assert_eq!(m.degree(0), 1);
        assert_eq!(m.degree(129), 1);
        assert!(!m.insert_edge(7, 7), "self edges ignored");
        assert!(m.remove_edge(129, 0));
        assert!(!m.remove_edge(129, 0));
        assert_eq!(m.degree(0), 0);
        assert_eq!(m.degree(129), 0);
    }

    #[test]
    fn finalize_mirrors_directed_bits() {
        let mut m = BitMatrix::new(70);
        m.set_raw(3, 68);
        m.or_row_words(5, &[0b1001]); // bits 0 and 3 into row 5
        m.clear_raw(5, 5);
        m.finalize_symmetric();
        assert!(m.contains(68, 3));
        assert!(m.contains(0, 5) && m.contains(3, 5));
        assert_eq!(m.degree(5), 2);
        assert_eq!(m.degree(3), 2, "edges {{3,68}} and {{3,5}}");
        assert_eq!(
            m.row_iter(5).collect::<Vec<_>>(),
            vec![0, 3],
            "row iteration is ascending"
        );
    }

    #[test]
    fn growing_keeps_edges_across_a_stride_change() {
        let edges = [(0, 63), (1, 2), (62, 63), (5, 40)];
        let mut m = BitMatrix::new(64);
        for &(a, b) in &edges {
            m.insert_edge(a, b);
        }
        m.grow(64);
        m.grow(130);
        m.insert_edge(129, 0);
        let mut want = BitMatrix::new(130);
        for &(a, b) in edges.iter().chain(&[(129, 0)]) {
            want.insert_edge(a, b);
        }
        assert_eq!(m, want);
        let mut neighbors = Vec::new();
        m.isolate(0, &mut neighbors);
        assert_eq!(neighbors, [63, 129]);
        want.remove_edge(0, 63);
        want.remove_edge(0, 129);
        assert_eq!(m, want);
        assert_eq!(m.degree(0), 0);
        assert_eq!(m.degree(63), 1);
    }

    #[test]
    fn briggs_counts_significant_union_neighbors() {
        // Star around node 0: neighbors 1..=4, so deg(0)=4, deg(i)=1.
        let mut m = BitMatrix::new(6);
        for i in 1..=4 {
            m.insert_edge(0, i);
        }
        // Union of rows 1 and 2 = {0}; node 0 has degree 4 >= 2 -> one
        // significant neighbor, which is < k only for k > 1.
        let mut sig = Vec::new();
        m.significant_into(2, &mut sig);
        assert!(m.briggs_union_ok(1, 2, 2, &sig), "1 significant < k=2");
        m.significant_into(1, &mut sig);
        assert!(!m.briggs_union_ok(1, 2, 1, &sig), "1 significant >= k=1");
    }

    /// The per-neighbor forms of both coalescing tests, as the allocator
    /// used to evaluate them.
    fn briggs_model(m: &BitMatrix, a: u32, b: u32, k: usize) -> bool {
        let union = (0..m.len() as u32).filter(|&t| m.contains(a, t) || m.contains(b, t));
        union.filter(|&t| m.degree(t) >= k).count() < k
    }

    fn george_model(m: &BitMatrix, x: u32, y: u32, k: usize) -> bool {
        m.row_iter(x).all(|t| m.degree(t) < k || m.contains(y, t))
    }

    #[test]
    fn word_wise_coalescing_tests_match_the_per_neighbor_forms() {
        let mut state = 0xB816_65u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut sig = Vec::new();
        for _ in 0..300 {
            let n = 2 + next(150) as usize;
            let mut m = BitMatrix::new(n);
            let density = 1 + next(8);
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if next(10) < density {
                        m.insert_edge(a, b);
                    }
                }
            }
            for k in [1, 2, 3, 5, 8, 32] {
                m.significant_into(k, &mut sig);
                for _ in 0..20 {
                    let (a, b) = (next(n as u64) as u32, next(n as u64) as u32);
                    assert_eq!(m.briggs_union_ok(a, b, k, &sig), briggs_model(&m, a, b, k));
                    assert_eq!(m.george_ok(a, b, &sig), george_model(&m, a, b, k));
                }
            }
        }
    }
}
