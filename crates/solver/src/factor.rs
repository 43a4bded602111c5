//! The basis inverse of the revised simplex: sparse LU factors plus the
//! eta file of product-form updates applied since the last factorization.
//!
//! Nine basis columns in ten of a FlexWAN model are a single `±1`, so the
//! factors are compressed columns and FTRAN / BTRAN cost the stored
//! non-zeros, not `m²`. The factorization is left-looking, one basis
//! column at a time, yet replays the row-swapping dense elimination with
//! partial pivoting it replaced operation for operation (DESIGN.md §3.4):
//! only exactly-zero terms are dropped, so every pivot, stored number and
//! FTRAN / BTRAN result is the dense code's up to the sign of a zero. That
//! dense code lives on below as the test oracle.

/// Compressed sparse columns: column `k` is `ent[end[k - 1]..end[k]]`.
/// (The simplex also keeps the *rows* of `A` in one, read sideways.)
#[derive(Default)]
pub(crate) struct Cols {
    end: Vec<u32>,
    pub(crate) ent: Vec<(u32, f64)>,
}

impl Cols {
    fn clear(&mut self) {
        self.end.clear();
        self.ent.clear();
    }

    /// Ends the column under construction.
    pub(crate) fn close(&mut self) {
        self.end.push(self.ent.len() as u32);
    }

    pub(crate) fn col(&self, k: usize) -> &[(u32, f64)] {
        let start = k.checked_sub(1).map_or(0, |j| self.end[j] as usize);
        &self.ent[start..self.end[k] as usize]
    }
}

/// `P·B = L·U`: unit-diagonal `L` and `U` as columns indexed by pivot
/// position, entries in increasing position with the diagonal of `U`
/// apart. All storage, the factorization's workspace included, is reused
/// from one [`Lu::factor`] to the next.
#[derive(Default)]
pub(crate) struct Lu {
    /// `piv[k]` is the position swapped with `k` at step `k`. Empty until
    /// the first success and after a singular verdict, which makes
    /// `ftran` / `btran` the identity.
    piv: Vec<u32>,
    diag: Vec<f64>,
    l: Cols,
    u: Cols,
    /// The column being eliminated, by original row; zero between columns.
    work: Vec<f64>,
    /// Position → original row, and its inverse.
    perm: Vec<u32>,
    pos: Vec<u32>,
}

impl Lu {
    /// Factorizes the matrix whose `k`-th column is the sparse column
    /// `cols[basis[k]]`. `false` when (numerically) singular.
    pub(crate) fn factor(&mut self, cols: &[Vec<(u32, f64)>], basis: &[u32]) -> bool {
        let m = basis.len();
        self.piv.clear();
        self.diag.clear();
        self.l.clear();
        self.u.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.perm.clear();
        self.perm.extend(0..m as u32);
        self.pos.clear();
        self.pos.extend(0..m as u32);
        for (k, &b) in basis.iter().enumerate() {
            let Some(p) = self.eliminate(&cols[b as usize], k) else {
                self.piv.clear();
                return false;
            };
            self.piv.push(p as u32);
            self.perm.swap(k, p);
            self.pos[self.perm[k] as usize] = k as u32;
            self.pos[self.perm[p] as usize] = p as u32;
            self.l.close();
            self.u.close();
        }
        // Rows kept moving after their `L` entries were stored; BTRAN's dot
        // products run over a column in increasing final position.
        for e in &mut self.l.ent {
            e.0 = self.pos[e.0 as usize];
        }
        let mut start = 0;
        for &end in &self.l.end {
            self.l.ent[start..end as usize].sort_unstable_by_key(|e| e.0);
            start = end as usize;
        }
        true
    }

    /// Column `k`: solves it against the earlier `L` columns (its `U` part
    /// falls out on the way), picks the pivot and stores the multipliers
    /// of the other unpivoted rows. Returns the pivot's current position;
    /// `None` when no candidate reaches `1e-10`.
    fn eliminate(&mut self, col: &[(u32, f64)], k: usize) -> Option<usize> {
        if let [(row, v)] = *col {
            // A singleton on a row no earlier pivot took: no `L` column
            // reaches it and it is the only candidate.
            let p = self.pos[row as usize] as usize;
            if p >= k {
                self.diag.push(v);
                return (v.abs() >= 1e-10).then_some(p);
            }
        }
        let m = self.perm.len();
        for &(i, v) in col {
            self.work[i as usize] = v;
        }
        for j in 0..k {
            let row = self.perm[j] as usize;
            let u = self.work[row];
            if u != 0.0 {
                self.work[row] = 0.0;
                self.u.ent.push((j as u32, u));
                for &(i, l) in self.l.col(j) {
                    self.work[i as usize] -= l * u;
                }
            }
        }
        let mut p = k;
        let mut best = self.work[self.perm[k] as usize].abs();
        for i in k + 1..m {
            let v = self.work[self.perm[i] as usize].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < 1e-10 {
            return None;
        }
        let d = std::mem::take(&mut self.work[self.perm[p] as usize]);
        self.diag.push(d);
        for &row in &self.perm[k..] {
            let v = std::mem::take(&mut self.work[row as usize]);
            if v != 0.0 && v / d != 0.0 {
                self.l.ent.push((row, v / d));
            }
        }
        Some(p)
    }

    /// Stored non-zeros of the current factors: `nnz(L) + nnz(U) + m`.
    pub(crate) fn nonzeros(&self) -> usize {
        self.l.ent.len() + self.u.ent.len() + self.piv.len()
    }

    /// Solves `B·x = v` in place.
    pub(crate) fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.piv.len() {
            v.swap(k, self.piv[k] as usize);
        }
        for k in 0..self.piv.len() {
            let t = v[k];
            if t != 0.0 {
                for &(i, l) in self.l.col(k) {
                    v[i as usize] -= l * t;
                }
            }
        }
        for k in (0..self.piv.len()).rev() {
            let t = v[k] / self.diag[k];
            v[k] = t;
            if t != 0.0 {
                for &(i, u) in self.u.col(k) {
                    v[i as usize] -= u * t;
                }
            }
        }
    }

    /// Solves `Bᵀ·y = v` in place.
    pub(crate) fn btran(&self, v: &mut [f64]) {
        for k in 0..self.piv.len() {
            let mut t = v[k];
            for &(i, u) in self.u.col(k) {
                t -= u * v[i as usize];
            }
            v[k] = t / self.diag[k];
        }
        for k in (0..self.piv.len()).rev() {
            let mut t = v[k];
            for &(i, l) in self.l.col(k) {
                t -= l * v[i as usize];
            }
            v[k] = t;
        }
        for k in (0..self.piv.len()).rev() {
            v.swap(k, self.piv[k] as usize);
        }
    }
}

/// The product-form updates since the last factorization, oldest first.
/// Update `k` put a column whose FTRAN'd image was `w` at basis row
/// `r = head[k].0`: `head[k].1 = w[r]`, column `k` of `rest` is the rest of
/// `w`. Flat storage kept across `clear`, so a pivot allocates nothing.
#[derive(Default)]
pub(crate) struct EtaFile {
    head: Vec<(u32, f64)>,
    rest: Cols,
}

impl EtaFile {
    pub(crate) fn len(&self) -> usize {
        self.head.len()
    }

    pub(crate) fn clear(&mut self) {
        self.head.clear();
        self.rest.clear();
    }

    pub(crate) fn push(&mut self, r: usize, w: &[f64]) {
        self.head.push((r as u32, w[r]));
        let rest = w.iter().enumerate();
        let rest = rest.filter(|&(i, &v)| i != r && v.abs() > 1e-12);
        self.rest.ent.extend(rest.map(|(i, &v)| (i as u32, v)));
        self.rest.close();
    }

    /// Applies the file after the factorization's FTRAN.
    pub(crate) fn ftran(&self, v: &mut [f64]) {
        for (k, &(r, wr)) in self.head.iter().enumerate() {
            let t = v[r as usize] / wr;
            v[r as usize] = t;
            if t != 0.0 {
                for &(i, w) in self.rest.col(k) {
                    v[i as usize] -= w * t;
                }
            }
        }
    }

    /// Applies the file, newest first, before the factorization's BTRAN.
    pub(crate) fn btran(&self, v: &mut [f64]) {
        for (k, &(r, wr)) in self.head.iter().enumerate().rev() {
            let mut t = v[r as usize];
            for &(i, w) in self.rest.col(k) {
                t -= w * v[i as usize];
            }
            v[r as usize] = t / wr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_util::rng::ChaCha8Rng;

    /// The dense LU this module replaced, kept verbatim as the oracle
    /// (only the signature changed: columns and basis instead of the
    /// instance): `P·B = L·U` with unit-diagonal `L` stored below the
    /// diagonal of `lu` and `U` on/above it.
    struct Dense {
        m: usize,
        lu: Vec<f64>,
        piv: Vec<u32>,
    }

    impl Dense {
        fn factor(cols: &[Vec<(u32, f64)>], basis: &[u32]) -> Option<Dense> {
            let m = basis.len();
            let mut a = vec![0.0; m * m];
            for (k, &b) in basis.iter().enumerate() {
                for &(i, v) in &cols[b as usize] {
                    a[i as usize * m + k] = v;
                }
            }
            let mut piv = vec![0u32; m];
            for k in 0..m {
                let mut p = k;
                let mut best = a[k * m + k].abs();
                for i in k + 1..m {
                    let v = a[i * m + k].abs();
                    if v > best {
                        best = v;
                        p = i;
                    }
                }
                if best < 1e-10 {
                    return None;
                }
                piv[k] = p as u32;
                if p != k {
                    for j in 0..m {
                        a.swap(k * m + j, p * m + j);
                    }
                }
                let d = a[k * m + k];
                for i in k + 1..m {
                    let l = a[i * m + k] / d;
                    if l != 0.0 {
                        a[i * m + k] = l;
                        for j in k + 1..m {
                            a[i * m + j] -= l * a[k * m + j];
                        }
                    } else {
                        a[i * m + k] = 0.0;
                    }
                }
            }
            Some(Dense { m, lu: a, piv })
        }

        fn ftran(&self, v: &mut [f64]) {
            let m = self.m;
            for k in 0..m {
                let p = self.piv[k] as usize;
                if p != k {
                    v.swap(k, p);
                }
            }
            for k in 0..m {
                let t = v[k];
                if t != 0.0 {
                    for (i, vi) in v.iter_mut().enumerate().skip(k + 1) {
                        *vi -= self.lu[i * m + k] * t;
                    }
                }
            }
            for k in (0..m).rev() {
                let t = v[k] / self.lu[k * m + k];
                v[k] = t;
                if t != 0.0 {
                    for (i, vi) in v.iter_mut().enumerate().take(k) {
                        *vi -= self.lu[i * m + k] * t;
                    }
                }
            }
        }

        fn btran(&self, v: &mut [f64]) {
            let m = self.m;
            for k in 0..m {
                let mut t = v[k];
                for (i, &vi) in v.iter().enumerate().take(k) {
                    t -= self.lu[i * m + k] * vi;
                }
                v[k] = t / self.lu[k * m + k];
            }
            for k in (0..m).rev() {
                let mut t = v[k];
                for (i, &vi) in v.iter().enumerate().skip(k + 1) {
                    t -= self.lu[i * m + k] * vi;
                }
                v[k] = t;
            }
            for k in (0..m).rev() {
                let p = self.piv[k] as usize;
                if p != k {
                    v.swap(k, p);
                }
            }
        }
    }

    /// Coefficients the FlexWAN models use (±1, small integers, the
    /// 100·k Gbps rates) plus values that are not dyadic, so products and
    /// quotients round.
    fn coeff(rng: &mut ChaCha8Rng) -> f64 {
        let v = match rng.gen_range(0..6u32) {
            0 => 1.0,
            1 => rng.gen_range(2..=9u32) as f64,
            2 => 100.0 * rng.gen_range(1..=8u32) as f64,
            3 => 0.1,
            4 => 1.0 / 3.0,
            _ => rng.gen_range(1..=40u32) as f64 * 0.7,
        };
        if rng.gen_bool(0.5) {
            -v
        } else {
            v
        }
    }

    /// Columns in the instance layout: `n` sparse structurals (1–12
    /// non-zeros), then a `+1` logical per row, then the `±1` artificial
    /// pair of each row.
    fn columns(m: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<(u32, f64)>> {
        let mut cols = Vec::with_capacity(n + 3 * m);
        let mut rows: Vec<u32> = (0..m as u32).collect();
        for _ in 0..n {
            let nnz = rng.gen_range(1..=12usize).min(m);
            rng.shuffle(&mut rows);
            let mut col: Vec<(u32, f64)> = rows[..nnz].iter().map(|&i| (i, coeff(rng))).collect();
            col.sort_unstable_by_key(|e| e.0);
            cols.push(col);
        }
        cols.extend((0..m as u32).map(|i| vec![(i, 1.0)]));
        for i in 0..m as u32 {
            cols.push(vec![(i, 1.0)]);
            cols.push(vec![(i, -1.0)]);
        }
        cols
    }

    /// Factors `basis` both ways and compares verdict, `piv` and the
    /// FTRAN / BTRAN images of dense, sparse and unit right-hand sides
    /// element by element. Returns whether the basis was nonsingular.
    fn check(lu: &mut Lu, cols: &[Vec<(u32, f64)>], basis: &[u32], rng: &mut ChaCha8Rng) -> bool {
        let m = basis.len();
        let oracle = Dense::factor(cols, basis);
        let ok = lu.factor(cols, basis);
        assert_eq!(ok, oracle.is_some(), "singular verdict, basis {basis:?}");
        let Some(oracle) = oracle else {
            // A refused factorization must leave the identity behind.
            let mut v = vec![1.5; m];
            lu.ftran(&mut v);
            lu.btran(&mut v);
            assert_eq!(v, vec![1.5; m]);
            return false;
        };
        assert_eq!(lu.piv, oracle.piv, "basis {basis:?}");
        assert!(lu.nonzeros() >= m && lu.nonzeros() <= m.pow(2));
        let mut rhs: Vec<Vec<f64>> = Vec::new();
        rhs.push((0..m).map(|_| coeff(rng)).collect());
        let mut sparse = vec![0.0; m];
        for _ in 0..3usize.min(m) {
            sparse[rng.gen_range(0..m)] = coeff(rng);
        }
        rhs.push(sparse);
        for _ in 0..4 {
            let mut unit = vec![0.0; m];
            unit[rng.gen_range(0..m)] = 1.0;
            rhs.push(unit);
        }
        for v in rhs {
            let (mut a, mut b) = (v.clone(), v.clone());
            lu.ftran(&mut a);
            oracle.ftran(&mut b);
            assert_eq!(a, b, "ftran of {v:?}, basis {basis:?}");
            let (mut a, mut b) = (v.clone(), v.clone());
            lu.btran(&mut a);
            oracle.btran(&mut b);
            assert_eq!(a, b, "btran of {v:?}, basis {basis:?}");
        }
        true
    }

    #[test]
    fn sparse_lu_replays_the_dense_oracle_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1u64 << 20 | 20);
        // One `Lu` for the whole run: storage reuse across sizes and
        // across singular verdicts is part of what is checked.
        let mut lu = Lu::default();
        let (mut regular, mut singular) = (0u32, 0u32);
        for &m in &[1usize, 2, 7, 38, 50, 200] {
            let n = 3 * m + 2;
            let trials = if m >= 200 { 24 } else { 120 };
            for trial in 0..trials {
                let cols = columns(m, n, &mut rng);
                let logical = |i: usize| (n + i) as u32;
                // Start from the slack basis, then disturb it.
                let mut basis: Vec<u32> = (0..m).map(logical).collect();
                let structural_share = [0.1, 0.3, 0.6, 1.0][trial % 4];
                let mut structurals: Vec<u32> = (0..n as u32).collect();
                rng.shuffle(&mut structurals);
                for (i, slot) in basis.iter_mut().enumerate() {
                    if rng.gen_bool(structural_share) {
                        *slot = structurals[i];
                    } else if rng.gen_bool(0.15) {
                        // The row's artificial, either sign.
                        *slot = (n + m + 2 * i + rng.gen_range(0..2usize)) as u32;
                    }
                }
                if trial % 3 != 0 {
                    // Logicals away from their own position: row swaps.
                    rng.shuffle(&mut basis);
                }
                let ok = check(&mut lu, &cols, &basis, &mut rng);
                if ok {
                    regular += 1;
                } else {
                    singular += 1;
                }
                if ok && m >= 2 {
                    // One column in two positions.
                    let mut dup = basis.clone();
                    let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m - 1));
                    dup[a] = dup[(a + 1 + b) % m];
                    assert!(!check(&mut lu, &cols, &dup, &mut rng));
                    // A row no basis column touches.
                    let z = rng.gen_range(0..m) as u32;
                    let mut holed = cols.clone();
                    for col in &mut holed {
                        col.retain(|e| e.0 != z);
                    }
                    assert!(!check(&mut lu, &holed, &basis, &mut rng));
                }
            }
        }
        // The draw must exercise both verdicts, not just one of them.
        assert!(regular >= 100 && singular >= 100, "{regular} / {singular}");
    }

    /// A structural column pivots on a row whose logical sits later in
    /// the basis: when that unit column comes up its row is taken, it
    /// gets a `U` entry and fills into the structural's other rows.
    #[test]
    fn unit_column_on_a_taken_row_fills() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut lu = Lu::default();
        for &m in &[2usize, 7, 38, 50, 200] {
            for _ in 0..40 {
                let s = rng.gen_range(0..m - 1);
                let r = rng.gen_range(s + 1..m);
                let mut cols: Vec<Vec<(u32, f64)>> =
                    (0..m as u32).map(|i| vec![(i, 1.0)]).collect();
                // Largest entry on row r, so position s pivots there.
                let mut col = vec![(s as u32, coeff(&mut rng) / 3.0), (r as u32, 1000.0)];
                for extra in 0..m.min(4) {
                    if extra != s && extra != r {
                        col.push((extra as u32, coeff(&mut rng)));
                    }
                }
                cols.push(col);
                let mut basis: Vec<u32> = (0..m as u32).collect();
                basis[s] = m as u32;
                assert!(check(&mut lu, &cols, &basis, &mut rng));
                assert_eq!(lu.piv[s] as usize, r);
                assert!(lu.nonzeros() > m, "the unit column must fill");
            }
        }
    }

    #[test]
    fn eta_file_applies_in_order_and_restarts_empty() {
        let mut file = EtaFile::default();
        file.push(1, &[2.0, 4.0, 0.0]);
        file.push(0, &[0.5, 1e-13, 3.0]);
        assert_eq!(file.len(), 2);
        let mut v = vec![1.0, 2.0, 3.0];
        file.ftran(&mut v);
        // Eta 1: v[1] = 0.5, v[0] -= 2·0.5 → 0; eta 2: v[0] = 0 → no-op.
        assert_eq!(v, vec![0.0, 0.5, 3.0]);
        file.btran(&mut v);
        assert_eq!(v, vec![-18.0, 9.125, 3.0]);
        file.clear();
        assert_eq!(file.len(), 0);
        let mut v = vec![1.0, 2.0, 3.0];
        file.ftran(&mut v);
        file.btran(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        file.push(2, &[0.0, 1.0, 2.0]);
        file.ftran(&mut v);
        assert_eq!(v, vec![1.0, 0.5, 1.5]);
    }
}
