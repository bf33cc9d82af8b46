//! Reed–Solomon erasure coding over GF(2^8).
//!
//! The erasure-coded policy splits every page into `k` equally sized data
//! splits and derives `r` parity splits from them, so that *any* `k` of
//! the `k + r` splits reconstruct the page — the Hydra-style
//! generalisation of the paper's single-parity schemes. The code is
//! systematic: data splits are stored verbatim and the common-case read
//! path never touches the decoder.
//!
//! The field is GF(2^8) with the usual AES-adjacent reduction polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), with multiplication via
//! compile-time log/exp tables. The encoding matrix is a Vandermonde
//! matrix normalised into systematic form, which keeps every `k x k`
//! submatrix invertible (the MDS property). For `r = 1` the single parity
//! row degenerates to all-ones, i.e. the plain XOR parity of
//! [`crate::xor`] — encode and single-erasure decode take that fast path.
//!
//! ```
//! use rmp_parity::rs::RsCode;
//!
//! let code = RsCode::new(4, 2).unwrap();
//! let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
//! let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
//! shards.extend(code.encode(&data).unwrap().into_iter().map(Some));
//! shards[0] = None; // lose one data split
//! shards[4] = None; // ... and one parity split
//! code.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
//! ```

use rmp_types::{Page, PAGE_SIZE};

/// Errors from codec construction and reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RsError {
    /// `k`/`r` outside the supported range, or `k + r > 256`.
    BadGeometry(String),
    /// Shard slice count or shard lengths disagree with the geometry.
    BadShards(String),
    /// Fewer than `k` shards survive; the data is gone.
    TooFewShards {
        /// Shards still present.
        present: usize,
        /// Shards required (`k`).
        needed: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::BadGeometry(s) => write!(f, "bad code geometry: {s}"),
            RsError::BadShards(s) => write!(f, "bad shards: {s}"),
            RsError::TooFewShards { present, needed } => {
                write!(
                    f,
                    "unrecoverable: {present} shards present, {needed} needed"
                )
            }
        }
    }
}

impl std::error::Error for RsError {}

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic
// ---------------------------------------------------------------------------

/// `exp[i] = g^i` for generator `g = 2`, doubled so `exp[log a + log b]`
/// never needs a modular reduction; `log[exp[i]] = i`.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const GF_EXP: [u8; 512] = TABLES.0;
const GF_LOG: [u8; 256] = TABLES.1;

/// Multiplies two field elements.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// Divides `a` by `b`; panics on division by zero.
#[inline]
pub fn gf_div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(2^8) division by zero");
    if a == 0 {
        0
    } else {
        GF_EXP[255 + GF_LOG[a as usize] as usize - GF_LOG[b as usize] as usize]
    }
}

/// Raises field element `a` to the power `n`.
#[inline]
fn gf_pow(a: u8, n: usize) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (GF_LOG[a as usize] as usize * n) % 255;
    GF_EXP[l]
}

/// Accumulates `coef * src` into `dst` (the GF(2^8) multiply-add the
/// whole codec reduces to).
#[inline]
fn mul_add(dst: &mut [u8], src: &[u8], coef: u8) {
    match coef {
        0 => {}
        1 => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
        _ => {
            let log_c = GF_LOG[coef as usize] as usize;
            for (d, s) in dst.iter_mut().zip(src) {
                if *s != 0 {
                    *d ^= GF_EXP[log_c + GF_LOG[*s as usize] as usize];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Matrices
// ---------------------------------------------------------------------------

/// Inverts a square matrix over GF(2^8) by Gauss–Jordan elimination.
/// Returns `None` when the matrix is singular (cannot happen for the
/// submatrices this module builds; kept as a checked path anyway).
fn invert(mut m: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&row| m[row][col] != 0)?;
        m.swap(col, pivot);
        inv.swap(col, pivot);
        let p = m[col][col];
        for j in 0..n {
            m[col][j] = gf_div(m[col][j], p);
            inv[col][j] = gf_div(inv[col][j], p);
        }
        for row in 0..n {
            if row == col || m[row][col] == 0 {
                continue;
            }
            let factor = m[row][col];
            for j in 0..n {
                let (a, b) = (m[col][j], inv[col][j]);
                m[row][j] ^= gf_mul(factor, a);
                inv[row][j] ^= gf_mul(factor, b);
            }
        }
    }
    Some(inv)
}

/// Multiplies `a` (n x k) by `b` (k x k).
fn mat_mul(a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let k = b.len();
    a.iter()
        .map(|row| {
            (0..k)
                .map(|j| {
                    row.iter()
                        .enumerate()
                        .fold(0u8, |acc, (t, &v)| acc ^ gf_mul(v, b[t][j]))
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The code
// ---------------------------------------------------------------------------

/// A systematic `(k + r, k)` Reed–Solomon erasure code.
#[derive(Clone, Debug)]
pub struct RsCode {
    k: usize,
    r: usize,
    /// Full `(k + r) x k` systematic encoding matrix: the top `k` rows are
    /// the identity, the bottom `r` rows hold the parity coefficients.
    matrix: Vec<Vec<u8>>,
}

impl RsCode {
    /// Builds the code for `k` data splits and `r` parity splits.
    ///
    /// # Errors
    ///
    /// [`RsError::BadGeometry`] unless `k >= 1`, `r >= 1` and
    /// `k + r <= 256` (the field has only 256 evaluation points).
    pub fn new(k: usize, r: usize) -> Result<RsCode, RsError> {
        if k == 0 || r == 0 {
            return Err(RsError::BadGeometry(format!(
                "need k >= 1 data and r >= 1 parity splits, got k={k} r={r}"
            )));
        }
        if k + r > 256 {
            return Err(RsError::BadGeometry(format!(
                "k + r = {} exceeds the 256 points of GF(2^8)",
                k + r
            )));
        }
        // Vandermonde rows v_i = [i^0, i^1, ..., i^(k-1)] over distinct
        // evaluation points i; normalising by the inverse of the top
        // k x k block makes the code systematic while preserving the
        // all-submatrices-invertible property.
        let vandermonde: Vec<Vec<u8>> = (0..k + r)
            .map(|i| (0..k).map(|j| gf_pow(i as u8, j)).collect())
            .collect();
        let top = vandermonde[..k].to_vec();
        let inv_top = invert(top).expect("distinct-point Vandermonde is invertible");
        let mut matrix = mat_mul(&vandermonde, &inv_top);
        if r == 1 {
            // The single-parity row of any systematic MDS code is a row of
            // nonzero coefficients; pin it to all-ones so the r = 1 case
            // is exactly the XOR parity of `crate::xor`.
            matrix[k] = vec![1; k];
        }
        Ok(RsCode { k, r, matrix })
    }

    /// Data splits per page.
    pub fn data_splits(&self) -> usize {
        self.k
    }

    /// Parity splits per page.
    pub fn parity_splits(&self) -> usize {
        self.r
    }

    /// Total splits per page (`k + r`).
    pub fn total_splits(&self) -> usize {
        self.k + self.r
    }

    /// Encodes `k` equal-length data splits into `r` parity splits. The
    /// splits may be any byte slices — a page's own chunks, or units
    /// already cut from it — so no copy is made to feed the codec.
    ///
    /// # Errors
    ///
    /// [`RsError::BadShards`] when the split count or lengths disagree.
    pub fn encode<D: AsRef<[u8]>>(&self, data: &[D]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::BadShards(format!(
                "expected {} data splits, got {}",
                self.k,
                data.len()
            )));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(RsError::BadShards("data splits differ in length".into()));
        }
        let mut parity = vec![vec![0u8; len]; self.r];
        for (row, out) in parity.iter_mut().enumerate() {
            let coefs = &self.matrix[self.k + row];
            for (j, d) in data.iter().enumerate() {
                mul_add(out, d.as_ref(), coefs[j]);
            }
        }
        Ok(parity)
    }

    /// Fills in every missing shard from any `k` survivors. `shards` must
    /// hold `k + r` slots in split order (data first, then parity);
    /// `None` marks an erasure. On success every slot is `Some`.
    ///
    /// # Errors
    ///
    /// [`RsError::TooFewShards`] with fewer than `k` survivors;
    /// [`RsError::BadShards`] on length mismatches.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.k + self.r {
            return Err(RsError::BadShards(format!(
                "expected {} shard slots, got {}",
                self.k + self.r,
                shards.len()
            )));
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(RsError::TooFewShards {
                present: present.len(),
                needed: self.k,
            });
        }
        let len = shards[present[0]].as_ref().expect("present").len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().expect("present").len() != len)
        {
            return Err(RsError::BadShards("shards differ in length".into()));
        }
        if shards.iter().all(|s| s.is_some()) {
            return Ok(());
        }

        // Recover the data splits first. If they all survive, skip the
        // inversion; with exactly one erasure under r = 1 the decode is a
        // plain XOR of the survivors (the paper's reconstruction rule).
        if shards[..self.k].iter().any(|s| s.is_none()) {
            let rows: Vec<usize> = present.iter().copied().take(self.k).collect();
            let sub: Vec<Vec<u8>> = rows.iter().map(|&i| self.matrix[i].clone()).collect();
            let inv = invert(sub).expect("any k rows of the systematic matrix are independent");
            for target in 0..self.k {
                if shards[target].is_some() {
                    continue;
                }
                // data[target] = sum over survivors of inv[target][row] * shard
                let mut out = vec![0u8; len];
                for (col, &row_idx) in rows.iter().enumerate() {
                    let shard = shards[row_idx].as_ref().expect("present");
                    mul_add(&mut out, shard, inv[target][col]);
                }
                shards[target] = Some(out);
            }
        }
        // Re-derive any missing parity from the (now complete) data.
        if shards[self.k..].iter().any(|s| s.is_none()) {
            let data: Vec<Vec<u8>> = shards[..self.k]
                .iter()
                .map(|s| s.clone().expect("recovered above"))
                .collect();
            let parity = self.encode(&data)?;
            for (slot, fresh) in shards[self.k..].iter_mut().zip(parity) {
                if slot.is_none() {
                    *slot = Some(fresh);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Page splitting
// ---------------------------------------------------------------------------

/// Splits a page into `k` contiguous equal-size splits.
///
/// # Panics
///
/// When `k` does not divide [`PAGE_SIZE`] (config validation rejects such
/// geometries before an engine exists).
pub fn split_page(page: &Page, k: usize) -> Vec<Vec<u8>> {
    assert!(
        k >= 1 && PAGE_SIZE.is_multiple_of(k),
        "k={k} must divide PAGE_SIZE"
    );
    page.as_ref()
        .chunks(PAGE_SIZE / k)
        .map(<[u8]>::to_vec)
        .collect()
}

/// Reassembles a page from its `k` data splits.
///
/// # Panics
///
/// When the splits do not add up to exactly [`PAGE_SIZE`] bytes.
pub fn join_splits(splits: &[Vec<u8>]) -> Page {
    let mut page = Page::zeroed();
    let mut off = 0;
    for s in splits {
        page.as_mut()[off..off + s.len()].copy_from_slice(s);
        off += s.len();
    }
    assert_eq!(off, PAGE_SIZE, "splits must reassemble a full page");
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xor::xor_reduce;
    use proptest::prelude::*;

    fn shard_set(code: &RsCode, data: &[Vec<u8>]) -> Vec<Option<Vec<u8>>> {
        let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
        shards.extend(code.encode(data).expect("encode").into_iter().map(Some));
        shards
    }

    fn sample_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| {
                        let x = seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((i * len + j) as u64);
                        (x ^ (x >> 31)) as u8
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn field_axioms_hold() {
        // Spot-check associativity/distributivity and inverses.
        for a in [1u8, 2, 3, 0x53, 0xca, 0xff] {
            assert_eq!(gf_div(a, a), 1);
            assert_eq!(gf_mul(a, 1), a);
            for b in [1u8, 7, 0x8e, 0xfe] {
                assert_eq!(gf_div(gf_mul(a, b), b), a);
                for c in [2u8, 0x1d, 0xb3] {
                    assert_eq!(
                        gf_mul(a, b ^ c),
                        gf_mul(a, b) ^ gf_mul(a, c),
                        "distributivity for {a} {b} {c}"
                    );
                    assert_eq!(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(RsCode::new(0, 1), Err(RsError::BadGeometry(_))));
        assert!(matches!(RsCode::new(4, 0), Err(RsError::BadGeometry(_))));
        assert!(matches!(RsCode::new(200, 57), Err(RsError::BadGeometry(_))));
        assert!(RsCode::new(255, 1).is_ok());
    }

    #[test]
    fn r1_parity_is_plain_xor() {
        let code = RsCode::new(4, 1).expect("code");
        let pages: Vec<Page> = (0..4).map(Page::deterministic).collect();
        let data: Vec<Vec<u8>> = pages.iter().map(|p| p.as_ref().to_vec()).collect();
        let parity = code.encode(&data).expect("encode");
        let xor = xor_reduce(pages.iter());
        assert_eq!(parity[0].as_slice(), xor.as_ref());
    }

    #[test]
    fn any_single_erasure_recovers() {
        let code = RsCode::new(4, 2).expect("code");
        let data = sample_data(4, 64, 7);
        for lost in 0..code.total_splits() {
            let mut shards = shard_set(&code, &data);
            let expected = shards[lost].clone();
            shards[lost] = None;
            code.reconstruct(&mut shards).expect("reconstruct");
            assert_eq!(shards[lost], expected, "slot {lost}");
        }
    }

    #[test]
    fn any_r_erasures_recover() {
        let code = RsCode::new(3, 3).expect("code");
        let data = sample_data(3, 32, 13);
        let n = code.total_splits();
        // Every 3-of-6 erasure pattern.
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    let pristine = shard_set(&code, &data);
                    let mut shards = pristine.clone();
                    for &i in &[a, b, c] {
                        shards[i] = None;
                    }
                    code.reconstruct(&mut shards).expect("reconstruct");
                    assert_eq!(shards, pristine, "pattern ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_is_detected() {
        let code = RsCode::new(4, 2).expect("code");
        let mut shards = shard_set(&code, &sample_data(4, 16, 3));
        for shard in shards.iter_mut().take(3) {
            *shard = None;
        }
        assert_eq!(
            code.reconstruct(&mut shards),
            Err(RsError::TooFewShards {
                present: 3,
                needed: 4
            })
        );
    }

    #[test]
    fn encode_takes_chunks_of_a_page_as_it_takes_split_copies() {
        let code = RsCode::new(4, 2).expect("code");
        let page = Page::deterministic(17);
        let chunks: Vec<&[u8]> = page.as_ref().chunks(PAGE_SIZE / 4).collect();
        let copies = split_page(&page, 4);
        assert_eq!(code.encode(&chunks), code.encode(&copies));
    }

    #[test]
    fn split_and_join_round_trip() {
        let page = Page::deterministic(99);
        for k in [1usize, 2, 4, 8, 16] {
            let splits = split_page(&page, k);
            assert_eq!(splits.len(), k);
            assert!(splits.iter().all(|s| s.len() == PAGE_SIZE / k));
            assert_eq!(join_splits(&splits), page);
        }
    }

    #[test]
    fn full_page_pipeline_survives_r_erasures() {
        let (k, r) = (4, 2);
        let code = RsCode::new(k, r).expect("code");
        let page = Page::deterministic(5);
        let data = split_page(&page, k);
        let mut shards = shard_set(&code, &data);
        shards[1] = None;
        shards[4] = None;
        code.reconstruct(&mut shards).expect("reconstruct");
        let data_back: Vec<Vec<u8>> = shards[..k]
            .iter()
            .map(|s| s.clone().expect("filled"))
            .collect();
        assert_eq!(join_splits(&data_back), page);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Encode/decode round-trips over random (k, r, erasure pattern).
        #[test]
        fn roundtrip_random_geometry_and_erasures(
            k in 1usize..9,
            r in 1usize..5,
            seed in any::<u64>(),
        ) {
            let code = RsCode::new(k, r).expect("geometry in range");
            let data = sample_data(k, 48, seed);
            let pristine = shard_set(&code, &data);
            let mut shards = pristine.clone();
            // Derive a pseudo-random erasure pattern of exactly r slots
            // from the seed.
            let n = k + r;
            let mut lost = Vec::new();
            let mut x = seed | 1;
            while lost.len() < r {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let slot = (x >> 33) as usize % n;
                if !lost.contains(&slot) {
                    lost.push(slot);
                }
            }
            for &slot in &lost {
                shards[slot] = None;
            }
            code.reconstruct(&mut shards).expect("r erasures recover");
            prop_assert_eq!(shards, pristine);
        }
    }
}
