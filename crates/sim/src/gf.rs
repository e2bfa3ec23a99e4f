//! Blocked GF(2^8) kernels for Reed–Solomon (RAID-6) parity.
//!
//! RAIZN-2 adds a second rotating parity column Q beside the XOR parity
//! P. Q is a Reed–Solomon code word over GF(2^8) with the standard
//! polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11d) and generator `g = 2`:
//!
//! ```text
//! P = D_0 ^ D_1 ^ ... ^ D_{d-1}
//! Q = g^0·D_0 ^ g^1·D_1 ^ ... ^ g^{d-1}·D_{d-1}
//! ```
//!
//! Every kernel is built from one primitive, the SWAR "xtime" that
//! doubles eight packed field elements of a [`u64`] at once. It is
//! written in mask form — no multiply, no branch — so LLVM vectorises it
//! on baseline x86-64. Buffers are processed in 32-byte blocks
//! (`[u64; 4]`), then word by word, then byte by byte for the tail; the
//! kernels make no alignment assumptions and never allocate. Safe Rust
//! only (`sim` forbids `unsafe`).
//!
//! - [`gf_pq_into`] generates both syndromes in one pass over `m`
//!   consecutive units in Horner form, `Q = (…(D_{m-1}·g ⊕ D_{m-2})·g ⊕
//!   …)·g ⊕ D_0`: one xtime and one XOR per unit per word, each data word
//!   loaded once (Linux `lib/raid6` `gen_syndrome`).
//! - [`Decode`] recovers one slot of a stripe with up to two erasures in
//!   one pass: it folds the survivors into the P syndrome `S_P` and the
//!   Horner Q syndrome `S_Q`, and writes `β·(α·S_P ⊕ S_Q)` (or `S_P`
//!   alone) with two constants fixed by the erasure pattern. Only the
//!   requested slot is written, and only the slots it needs are read.
//! - [`gf_mul_into`] is the general multiply-accumulate by any constant.
//!
//! The scalar byte-at-a-time reference [`gf_mul_into_scalar_reference`]
//! is the proptest oracle and benchmark baseline, mirroring the XOR
//! kernel's pattern.
//!
//! # Examples
//!
//! ```
//! use sim::gf::{gf_pq_into, Decode, Slot};
//! // P and Q over three 64-byte data units, then recover units 0 and 2.
//! let units: Vec<u8> = (0..3 * 64).map(|i| (i * 7 + 3) as u8).collect();
//! let (mut p, mut q) = (vec![0u8; 64], vec![0u8; 64]);
//! gf_pq_into(&mut p, &mut q, &units, 0);
//! let d: Vec<&[u8]> = units.chunks(64).collect();
//! let survivors: [&[u8]; 3] = [&[], d[1], &[]];
//! for (j, k) in [(0, 2), (2, 0)] {
//!     let dec = Decode::new(3, Slot::Data(j), Some(Slot::Data(k)));
//!     let mut out = vec![0u8; 64];
//!     dec.run(&mut out, &survivors, &p, &q);
//!     assert_eq!(out, d[j]);
//! }
//! ```

use std::ops::Range;

/// `g^i` for `i` in `0..510`: doubled so `EXP[LOG[a] + LOG[b]]` needs no
/// modular reduction. `g = 2` generates the full multiplicative group.
const EXP: [u8; 512] = build_exp();

/// `LOG[x]` is the discrete log of `x` base `g` (`LOG[0]` is unused).
const LOG: [u8; 256] = build_log();

const fn xtime(x: u8) -> u8 {
    ((x & 0x7f) << 1) ^ if x & 0x80 != 0 { 0x1d } else { 0 }
}

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        exp[i + 255] = x;
        x = xtime(x);
        i += 1;
    }
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Multiplies two field elements.
#[inline]
pub const fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// `base^exp` in the field (with `0^0 = 1` by convention).
#[inline]
pub const fn gf_pow(base: u8, exp: u32) -> u8 {
    if exp == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let e = (LOG[base as usize] as u64 * exp as u64) % 255;
    EXP[e as usize]
}

/// The multiplicative inverse of a nonzero element.
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
#[inline]
pub const fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "gf_inv(0)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Doubles all eight field elements packed in a word (SWAR "xtime").
///
/// `(hi << 1) - (hi >> 7)` turns each overflowing byte's top bit into a
/// 0xff byte mask (the subtraction never borrows across bytes), which
/// selects the reduction constant 0x1d in exactly those bytes.
#[inline(always)]
fn xtime_word(v: u64) -> u64 {
    let hi = v & 0x8080_8080_8080_8080;
    let mask = (hi << 1).wrapping_sub(hi >> 7);
    ((v & 0x7f7f_7f7f_7f7f_7f7f) << 1) ^ (mask & 0x1d1d_1d1d_1d1d_1d1d)
}

/// Packed field elements the kernels step through a buffer with: a
/// 32-byte block, a word, or a single byte for the tail.
trait Lane: Copy {
    const BYTES: usize;
    const ZERO: Self;
    /// Loads from the first `BYTES` bytes of `b`.
    fn load(b: &[u8]) -> Self;
    /// Stores into the first `BYTES` bytes of `b`.
    fn store(self, b: &mut [u8]);
    fn xor(self, o: Self) -> Self;
    /// Multiplies every element by `g`.
    fn xtime(self) -> Self;
}

impl Lane for u8 {
    const BYTES: usize = 1;
    const ZERO: Self = 0;
    #[inline(always)]
    fn load(b: &[u8]) -> Self {
        b[0]
    }
    #[inline(always)]
    fn store(self, b: &mut [u8]) {
        b[0] = self;
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        self ^ o
    }
    #[inline(always)]
    fn xtime(self) -> Self {
        xtime(self)
    }
}

impl Lane for u64 {
    const BYTES: usize = 8;
    const ZERO: Self = 0;
    #[inline(always)]
    fn load(b: &[u8]) -> Self {
        u64::from_ne_bytes(b[..8].try_into().expect("word slice"))
    }
    #[inline(always)]
    fn store(self, b: &mut [u8]) {
        b[..8].copy_from_slice(&self.to_ne_bytes());
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        self ^ o
    }
    #[inline(always)]
    fn xtime(self) -> Self {
        xtime_word(self)
    }
}

impl Lane for [u64; 4] {
    const BYTES: usize = 32;
    const ZERO: Self = [0; 4];
    #[inline(always)]
    fn load(b: &[u8]) -> Self {
        let b = &b[..32];
        [
            u64::load(&b[0..]),
            u64::load(&b[8..]),
            u64::load(&b[16..]),
            u64::load(&b[24..]),
        ]
    }
    #[inline(always)]
    fn store(self, b: &mut [u8]) {
        let b = &mut b[..32];
        for (w, c) in self.iter().zip(b.chunks_exact_mut(8)) {
            w.store(c);
        }
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        [
            self[0] ^ o[0],
            self[1] ^ o[1],
            self[2] ^ o[2],
            self[3] ^ o[3],
        ]
    }
    #[inline(always)]
    fn xtime(self) -> Self {
        [
            xtime_word(self[0]),
            xtime_word(self[1]),
            xtime_word(self[2]),
            xtime_word(self[3]),
        ]
    }
}

/// Multiplies every element of `v` by the constant `c`: Horner over the
/// bits of `c`, most significant first (at most seven xtimes).
#[inline(always)]
fn mul<L: Lane>(v: L, c: u8) -> L {
    match c {
        0 => return L::ZERO,
        1 => return v,
        _ => {}
    }
    let mut acc = v;
    for bit in (0..7 - c.leading_zeros()).rev() {
        acc = acc.xtime();
        if c >> bit & 1 != 0 {
            acc = acc.xor(v);
        }
    }
    acc
}

/// Splits `0..len` into its 32-byte-block, word and byte spans.
fn lane_spans(len: usize) -> [Range<usize>; 3] {
    let (blocks, words) = (len / 32 * 32, len / 8 * 8);
    [0..blocks, blocks..words, words..len]
}

/// GF(2^8) multiply-accumulate: `dst[i] ^= c · src[i]`.
///
/// `c == 0` is a no-op and `c == 1` degenerates to [`crate::xor_into`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf_mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf_mul_into length mismatch");
    match c {
        0 => return,
        1 => return crate::xor_into(dst, src),
        _ => {}
    }
    fn span<L: Lane>(dst: &mut [u8], src: &[u8], c: u8, r: Range<usize>) {
        for off in r.step_by(L::BYTES) {
            let d = &mut dst[off..];
            L::load(d).xor(mul(L::load(&src[off..]), c)).store(d);
        }
    }
    let [b, w, t] = lane_spans(dst.len());
    span::<[u64; 4]>(dst, src, c, b);
    span::<u64>(dst, src, c, w);
    span::<u8>(dst, src, c, t);
}

/// Fused P+Q syndrome generation over `m` consecutive units:
/// `p ^= ⊕_k U_k` and `q ^= Σ_k g^(first+k)·U_k`, where `units` holds
/// `U_0..U_{m-1}` back to back, each `p.len()` bytes.
///
/// One pass: each data word is loaded once and feeds both the XOR and
/// the Horner accumulator, which is scaled by `g^first` at the end.
///
/// # Panics
///
/// Panics if `p` and `q` differ in length or `units` is not a whole
/// number of units.
pub fn gf_pq_into(p: &mut [u8], q: &mut [u8], units: &[u8], first: u32) {
    assert_eq!(p.len(), q.len(), "gf_pq_into length mismatch");
    let len = q.len();
    if len == 0 {
        assert!(units.is_empty(), "units of an empty column");
        return;
    }
    assert_eq!(units.len() % len, 0, "units must be whole columns");
    let m = units.len() / len;
    if m == 0 {
        return;
    }
    fn span<L: Lane>(p: &mut [u8], q: &mut [u8], units: &[u8], gk: u8, r: Range<usize>) {
        let len = q.len();
        let m = units.len() / len;
        for off in r.step_by(L::BYTES) {
            let top = L::load(&units[(m - 1) * len + off..]);
            let (mut sp, mut h) = (top, top);
            for k in (0..m - 1).rev() {
                let v = L::load(&units[k * len + off..]);
                sp = sp.xor(v);
                h = h.xtime().xor(v);
            }
            let d = &mut p[off..];
            L::load(d).xor(sp).store(d);
            let d = &mut q[off..];
            L::load(d).xor(mul(h, gk)).store(d);
        }
    }
    let gk = gf_pow(2, first);
    let [b, w, t] = lane_spans(len);
    span::<[u64; 4]>(p, q, units, gk, b);
    span::<u64>(p, q, units, gk, w);
    span::<u8>(p, q, units, gk, t);
}

/// One slot of a P+Q stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Data unit `k`.
    Data(usize),
    /// The XOR parity P.
    P,
    /// The Reed–Solomon parity Q.
    Q,
}

/// A one-output erasure decode of a stripe of `d` data units plus P and
/// Q: recovers the `target` slot when it and at most one `other` slot
/// are unavailable.
///
/// Every pattern reduces to `β·(α·S_P ⊕ S_Q)` or to `S_P` alone, where
/// `S_P` is the XOR of the readable data units and P, and `S_Q` is the
/// Horner sum `Σ g^i·D_i` over the readable data units, XORed with Q:
///
/// | target, other | output | reads |
/// |---|---|---|
/// | `D_j` or `P`, `Q` | `S_P` | data, P |
/// | `Q`, `P` | `S_Q` | data |
/// | `D_j`, `P` | `g^-j·S_Q` | data, Q |
/// | `D_j`, `D_k` | `(g^j ⊕ g^k)^-1·(g^k·S_P ⊕ S_Q)` | data, P, Q |
/// | `P`, `D_j` | `g^-j·(g^j·S_P ⊕ S_Q)` | data, Q |
/// | `Q`, `D_j` | `g^j·S_P ⊕ S_Q` | data, P |
///
/// With one erasure (`other == None`) the decode treats the parity it
/// does not need as the second erasure: Q for a data or P target, P for
/// a Q target. That is also the single-parity (no Q) decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decode {
    data_units: usize,
    /// Bit `k` set: data unit `k` is erased (not read).
    erased_data: u64,
    /// The coefficient of `S_P` (0: `S_P` is not formed, P is not read).
    alpha: u8,
    /// Whether `S_Q` is formed (and Q read, unless erased).
    horner: bool,
    /// The outer coefficient.
    beta: u8,
    erased_p: bool,
    erased_q: bool,
}

impl Decode {
    /// Plans the decode of `target` with `other` also unavailable.
    ///
    /// # Panics
    ///
    /// Panics if `data_units` is 0 or above 64, a data index is out of
    /// range, or `other == Some(target)`.
    pub fn new(data_units: usize, target: Slot, other: Option<Slot>) -> Decode {
        assert!(
            (1..=64).contains(&data_units),
            "decode needs 1..=64 data units"
        );
        let other = other.unwrap_or(if target == Slot::Q { Slot::P } else { Slot::Q });
        assert!(target != other, "decode: target erased twice");
        let g = |j: usize| gf_pow(2, j as u32);
        let (alpha, horner, beta) = match (target, other) {
            (Slot::Data(_) | Slot::P, Slot::Q) => (1, false, 1),
            (Slot::Q, Slot::P) => (0, true, 1),
            (Slot::Data(j), Slot::P) => (0, true, gf_inv(g(j))),
            (Slot::Data(j), Slot::Data(k)) => (g(k), true, gf_inv(g(j) ^ g(k))),
            (Slot::P, Slot::Data(j)) => (g(j), true, gf_inv(g(j))),
            (Slot::Q, Slot::Data(j)) => (g(j), true, 1),
            (Slot::P, Slot::P) | (Slot::Q, Slot::Q) => unreachable!("checked above"),
        };
        let mut erased_data = 0u64;
        for s in [target, other] {
            if let Slot::Data(k) = s {
                assert!(k < data_units, "decode: data unit {k} out of range");
                erased_data |= 1 << k;
            }
        }
        Decode {
            data_units,
            erased_data,
            alpha,
            horner,
            beta,
            erased_p: target == Slot::P || other == Slot::P,
            erased_q: target == Slot::Q || other == Slot::Q,
        }
    }

    /// Whether [`run`](Self::run) reads `slot`.
    pub fn reads(&self, slot: Slot) -> bool {
        match slot {
            Slot::Data(k) => k < self.data_units && self.erased_data & (1 << k) == 0,
            Slot::P => !self.erased_p && self.alpha != 0,
            Slot::Q => !self.erased_q && self.horner,
        }
    }

    /// Writes the target slot into `out`. `data[k]` is data unit `k`, and
    /// `p` and `q` the parities; every slot [`reads`](Self::reads) names
    /// must be at least `out.len()` bytes, the others are never touched
    /// (pass empty slices).
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold `d` slots or a slot that is read is
    /// shorter than `out`.
    pub fn run(&self, out: &mut [u8], data: &[&[u8]], p: &[u8], q: &[u8]) {
        assert_eq!(data.len(), self.data_units, "decode: wrong data slot count");
        let len = out.len();
        for (k, d) in data.iter().enumerate() {
            if self.reads(Slot::Data(k)) {
                assert!(d.len() >= len, "decode: data unit {k} too short");
            }
        }
        assert!(
            !self.reads(Slot::P) || p.len() >= len,
            "decode: P too short"
        );
        assert!(
            !self.reads(Slot::Q) || q.len() >= len,
            "decode: Q too short"
        );
        let (p, q) = (
            if self.reads(Slot::P) { p } else { &[] },
            if self.reads(Slot::Q) { q } else { &[] },
        );
        let [b, w, t] = lane_spans(len);
        decode_span::<[u64; 4]>(self, out, data, p, q, b);
        decode_span::<u64>(self, out, data, p, q, w);
        decode_span::<u8>(self, out, data, p, q, t);
    }
}

fn decode_span<L: Lane>(
    dec: &Decode,
    out: &mut [u8],
    data: &[&[u8]],
    p: &[u8],
    q: &[u8],
    r: Range<usize>,
) {
    let use_sp = dec.alpha != 0;
    for off in r.step_by(L::BYTES) {
        let (mut sp, mut h) = (L::ZERO, L::ZERO);
        for (k, d) in data.iter().enumerate().rev() {
            if dec.horner {
                h = h.xtime();
            }
            if dec.erased_data & (1 << k) != 0 {
                continue;
            }
            let v = L::load(&d[off..]);
            if use_sp {
                sp = sp.xor(v);
            }
            if dec.horner {
                h = h.xor(v);
            }
        }
        if !p.is_empty() {
            sp = sp.xor(L::load(&p[off..]));
        }
        if !q.is_empty() {
            h = h.xor(L::load(&q[off..]));
        }
        let mut r = mul(sp, dec.alpha);
        if dec.horner {
            r = r.xor(h);
        }
        mul(r, dec.beta).store(&mut out[off..]);
    }
}

/// Byte-at-a-time multiply-accumulate reference, kept deliberately
/// scalar (the proptest oracle and benchmark baseline — see
/// [`crate::xor_into_scalar_reference`]).
pub fn gf_mul_into_scalar_reference(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf_mul_into length mismatch");
    for i in 0..dst.len() {
        dst[i] = std::hint::black_box(dst[i] ^ gf_mul_scalar(src[i], c));
    }
}

/// Shift-and-reduce scalar multiply, independent of the log/exp tables
/// so the oracle does not share table-construction bugs with the kernel.
fn gf_mul_scalar(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tables_match_shift_multiply() {
        for a in 0u16..256 {
            for b in 0u16..256 {
                assert_eq!(
                    gf_mul(a as u8, b as u8),
                    gf_mul_scalar(a as u8, b as u8),
                    "gf_mul({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn mask_xtime_matches_bytewise() {
        for a in 0u16..256 {
            let w = u64::from_ne_bytes([a as u8, 0x80, 0x7f, 0xff, 0, 1, a as u8 ^ 0x80, 0xc3]);
            let got = xtime_word(w).to_ne_bytes();
            let want = w.to_ne_bytes().map(xtime);
            assert_eq!(got, want, "a = {a}");
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        for i in 0..255 {
            let x = gf_pow(2, i);
            assert!(!seen[x as usize], "g^{i} repeats");
            seen[x as usize] = true;
        }
        assert_eq!(gf_pow(2, 255), 1);
    }

    #[test]
    fn inverses_multiply_to_one() {
        for a in 1u16..256 {
            assert_eq!(gf_mul(a as u8, gf_inv(a as u8)), 1, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "gf_inv(0)")]
    fn zero_has_no_inverse() {
        gf_inv(0);
    }

    #[test]
    fn mac_identity_and_annihilator() {
        let src = [0xAB; 20];
        let mut dst = [0x11; 20];
        gf_mul_into(&mut dst, &src, 0);
        assert_eq!(dst, [0x11; 20]);
        gf_mul_into(&mut dst, &src, 1);
        assert_eq!(dst, [0x11 ^ 0xAB; 20]);
    }

    #[test]
    #[should_panic(expected = "target erased twice")]
    fn decode_rejects_duplicate_erasure() {
        Decode::new(4, Slot::Data(1), Some(Slot::Data(1)));
    }

    fn random_units(rng: &mut crate::SimRng, d: usize, len: usize) -> Vec<Vec<u8>> {
        (0..d)
            .map(|_| {
                let mut v = vec![0u8; len];
                rng.fill_bytes(&mut v);
                v
            })
            .collect()
    }

    /// Reference encode of `d` data units into (P, Q) through the scalar
    /// oracles, one unit at a time.
    fn encode(units: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
        let len = units[0].len();
        let mut p = vec![0u8; len];
        let mut q = vec![0u8; len];
        for (k, u) in units.iter().enumerate() {
            crate::xor::xor_into_scalar_reference(&mut p, u);
            gf_mul_into_scalar_reference(&mut q, u, gf_pow(2, k as u32));
        }
        (p, q)
    }

    /// Decodes every erased slot from the survivors with [`Decode`] and
    /// checks byte identity. Slots `0..d` are data, `d` is P, `d + 1` Q.
    /// Survivors are misaligned sub-slices at `off`, and every slot the
    /// decode does not read is passed empty.
    fn check_erasure(units: &[Vec<u8>], p: &[u8], q: &[u8], erased: &[usize], off: usize) {
        let d = units.len();
        let len = p.len();
        let slot = |s: usize| match s {
            s if s < d => Slot::Data(s),
            s if s == d => Slot::P,
            _ => Slot::Q,
        };
        let shift = |v: &[u8]| {
            let mut b = vec![0xEEu8; off + len];
            b[off..].copy_from_slice(v);
            b
        };
        let shifted: Vec<Vec<u8>> = units.iter().map(|u| shift(u)).collect();
        let (ps, qs) = (shift(p), shift(q));
        for (i, &t) in erased.iter().enumerate() {
            let other = erased.get(1 - i).map(|&o| slot(o));
            let dec = Decode::new(d, slot(t), other);
            let data: Vec<&[u8]> = (0..d)
                .map(|k| {
                    if dec.reads(Slot::Data(k)) {
                        &shifted[k][off..]
                    } else {
                        &[][..]
                    }
                })
                .collect();
            let pr: &[u8] = if dec.reads(Slot::P) { &ps[off..] } else { &[] };
            let qr: &[u8] = if dec.reads(Slot::Q) { &qs[off..] } else { &[] };
            let mut out = vec![0x5Au8; off + len];
            dec.run(&mut out[off..], &data, pr, qr);
            let want: &[u8] = match slot(t) {
                Slot::Data(k) => &units[k],
                Slot::P => p,
                Slot::Q => q,
            };
            assert_eq!(
                &out[off..],
                want,
                "slot {t} of erasures {erased:?}, d = {d}"
            );
            assert!(out[..off].iter().all(|&b| b == 0x5A), "wrote outside out");
        }
    }

    #[test]
    fn every_single_and_double_erasure_decodes() {
        for d in 2..=8usize {
            let mut rng = crate::SimRng::new(0xD0 + d as u64);
            let units = random_units(&mut rng, d, 97);
            let (p, q) = encode(&units);
            for a in 0..d + 2 {
                check_erasure(&units, &p, &q, &[a], 0);
                for b in a + 1..d + 2 {
                    check_erasure(&units, &p, &q, &[a, b], 0);
                }
            }
        }
    }

    proptest! {
        /// The blocked MAC kernel matches the scalar oracle for all small
        /// lengths (every tail size around the word and block
        /// boundaries), all constants, and misaligned sub-slices.
        #[test]
        fn mac_kernel_matches_scalar_reference(
            len in 0usize..=257,
            off in 0usize..8,
            c in 0u16..256,
            seed in 0u64..256,
        ) {
            let c = c as u8;
            let mut rng = crate::SimRng::new(seed ^ 0x6F);
            let mut src = vec![0u8; off + len];
            let mut a = vec![0u8; off + len];
            rng.fill_bytes(&mut src);
            rng.fill_bytes(&mut a);
            let mut b = a.clone();
            gf_mul_into(&mut a[off..], &src[off..], c);
            gf_mul_into_scalar_reference(&mut b[off..], &src[off..], c);
            prop_assert_eq!(&a, &b);
        }

        /// Distributivity over byte ranges: c·(x ^ y) = c·x ^ c·y.
        #[test]
        fn mac_is_linear(
            len in 0usize..=257,
            c in 0u16..256,
            seed in 0u64..256,
        ) {
            let c = c as u8;
            let mut rng = crate::SimRng::new(seed ^ 0x11D);
            let mut x = vec![0u8; len];
            let mut y = vec![0u8; len];
            rng.fill_bytes(&mut x);
            rng.fill_bytes(&mut y);
            let mut xy = x.clone();
            crate::xor_into(&mut xy, &y);
            let mut lhs = vec![0u8; len];
            gf_mul_into(&mut lhs, &xy, c);
            let mut rhs = vec![0u8; len];
            gf_mul_into(&mut rhs, &x, c);
            gf_mul_into(&mut rhs, &y, c);
            prop_assert_eq!(&lhs, &rhs);
        }

        /// The Horner encode over any run of units at any exponent
        /// offset equals per-unit scalar accumulation, on misaligned
        /// sub-slices with every tail length.
        #[test]
        fn horner_encode_matches_scalar_reference(
            m in 0usize..=8,
            len in 0usize..=257,
            first in 0u32..16,
            off in 0usize..8,
            seed in 0u64..256,
        ) {
            let mut rng = crate::SimRng::new(seed ^ 0x40E);
            let mut units = vec![0u8; off + m * len];
            let mut p = vec![0u8; off + len];
            let mut q = vec![0u8; off + len];
            rng.fill_bytes(&mut units);
            rng.fill_bytes(&mut p);
            rng.fill_bytes(&mut q);
            let (mut pr, mut qr) = (p.clone(), q.clone());
            for k in 0..m {
                let u = &units[off + k * len..off + (k + 1) * len];
                crate::xor::xor_into_scalar_reference(&mut pr[off..], u);
                gf_mul_into_scalar_reference(&mut qr[off..], u, gf_pow(2, first + k as u32));
            }
            gf_pq_into(&mut p[off..], &mut q[off..], &units[off..], first);
            prop_assert_eq!(&p, &pr);
            prop_assert_eq!(&q, &qr);
        }

        /// Every single and double erasure (every role pair: D+D, D+P,
        /// D+Q, P+Q) decodes to the scalar-encoded slot, for d in 2..=8,
        /// every tail length, and misaligned sub-slices.
        #[test]
        fn decode_matches_scalar_encode(
            d in 2usize..=8,
            len in 0usize..=257,
            off in 0usize..8,
            seed in 0u64..128,
        ) {
            let mut rng = crate::SimRng::new(seed ^ 0xEC0DE);
            let units = random_units(&mut rng, d, len);
            let (p, q) = encode(&units);
            for a in 0..d + 2 {
                check_erasure(&units, &p, &q, &[a], off);
                for b in a + 1..d + 2 {
                    check_erasure(&units, &p, &q, &[a, b], off);
                }
            }
        }
    }
}
