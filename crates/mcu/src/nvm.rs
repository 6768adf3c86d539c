//! The non-volatile main memory (FRAM model).

use std::ops::Range;

use gecko_isa::fnv::{fnv_lane, FNV_PRIME};
use gecko_isa::Word;

/// Words per page of the [`Nvm::touched_pages`] bitmap.
pub const PAGE_WORDS: u32 = 256;

/// Word-addressed non-volatile memory.
///
/// Intermittent systems use FRAM as their main memory (no cache), so memory
/// contents survive power failure by construction. The model keeps
/// read/write counters (FRAM endurance is finite; the wear-out attack of
/// Cronin et al. discussed in Section VIII motivates tracking them).
///
/// Address decoding wraps: the effective address is taken modulo the memory
/// size (a power of two), mirroring MCUs that ignore high address bits.
///
/// Every write marks its page of [`PAGE_WORDS`] words as touched, and only
/// [`Nvm::reset`] clears the marks, so a page that is not touched is all
/// zero. Cloning, [`Clone::clone_from`] and [`Nvm::fold_fnv`] rely on that
/// to do work proportional to the touched pages, not to the memory size.
/// Equality compares words and counters, never the marks.
///
/// [`Nvm::load`] is the program's load; runtime code reads through
/// [`Nvm::read`]. A device that keeps runtime state the program should not
/// read sets a load fence ([`Nvm::set_load_fence`]) and counts the loads
/// that reach it ([`Nvm::fenced_load_count`]): a correct program makes
/// none, but one whose registers an EM fault corrupted can load anywhere.
pub struct Nvm {
    words: Vec<Word>,
    /// One bit per page, set by every write since the last reset.
    touched: Vec<u64>,
    mask: u32,
    /// Word index at and above which a [`Nvm::load`] is counted in
    /// `fenced_loads`.
    load_fence: u32,
    fenced_loads: u64,
    reads: u64,
    writes: u64,
}

impl Nvm {
    /// Creates a zeroed memory of `size_words` words.
    ///
    /// # Panics
    ///
    /// Panics unless `size_words` is a power of two.
    pub fn new(size_words: u32) -> Nvm {
        assert!(
            size_words.is_power_of_two(),
            "NVM size must be a power of two, got {size_words}"
        );
        let pages = size_words.div_ceil(PAGE_WORDS) as usize;
        Nvm {
            words: vec![0; size_words as usize],
            touched: vec![0; pages.div_ceil(64)],
            mask: size_words - 1,
            load_fence: size_words,
            fenced_loads: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Memory size in words.
    pub fn len(&self) -> u32 {
        self.words.len() as u32
    }

    /// Whether the memory has zero words (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads the word at `addr` (wrapping), counting the access.
    #[inline]
    pub fn load(&mut self, addr: u32) -> Word {
        let i = addr & self.mask;
        self.reads += 1;
        if i >= self.load_fence {
            self.fenced_loads += 1;
        }
        self.words[i as usize]
    }

    /// Sets the word index at and above which [`Nvm::load`]s are counted
    /// in [`Nvm::fenced_load_count`]. The default is the memory size: no
    /// fence.
    pub fn set_load_fence(&mut self, fence: u32) {
        self.load_fence = fence;
    }

    /// Counted loads at or above the load fence.
    pub fn fenced_load_count(&self) -> u64 {
        self.fenced_loads
    }

    /// Writes the word at `addr` (wrapping), counting the access.
    #[inline]
    pub fn store(&mut self, addr: u32, value: Word) {
        self.writes += 1;
        self.write(addr, value);
    }

    /// Reads without counting (for inspection by tests and experiments).
    #[inline]
    pub fn read(&self, addr: u32) -> Word {
        self.words[(addr & self.mask) as usize]
    }

    /// Writes without counting (for loading memory images).
    #[inline]
    pub fn write(&mut self, addr: u32, value: Word) {
        let i = addr & self.mask;
        let page = (i / PAGE_WORDS) as usize;
        self.touched[page / 64] |= 1 << (page % 64);
        self.words[i as usize] = value;
    }

    /// Copies `values` into memory starting at `base` (used to load app
    /// data images).
    pub fn write_image(&mut self, base: u32, values: &[Word]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(base.wrapping_add(i as u32), v);
        }
    }

    /// Reads `len` words starting at `base`.
    pub fn read_range(&self, base: u32, len: u32) -> Vec<Word> {
        (0..len).map(|i| self.read(base.wrapping_add(i))).collect()
    }

    /// A read-only view of the entire memory, uncounted (tooling access:
    /// checkpoint inspection and tests, not program loads).
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// The indices of the pages written since the last reset, ascending.
    /// Page `p` holds the words `p * PAGE_WORDS ..` (the whole memory is
    /// one page when it is smaller than [`PAGE_WORDS`]); every other page
    /// is all zero.
    pub fn touched_pages(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.touched)
    }

    /// Words per page: [`PAGE_WORDS`], or the memory size if smaller.
    pub fn page_words(&self) -> u32 {
        self.len().min(PAGE_WORDS)
    }

    /// Continues the 64-bit-lane FNV-1a hash `h` over the whole image:
    /// one [`fnv_lane`] per pair of words, the even word in the low half.
    /// An untouched page is all zero, and eating a zero lane is a bare
    /// multiply (the lane mixer maps 0 to 0), so each untouched page
    /// folds in as one multiply by `FNV_PRIME^(page lanes)`. The result is
    /// bit-identical to eating every lane of [`Nvm::words`] in order.
    pub fn fold_fnv(&self, h: u64) -> u64 {
        self.fold_fnv_zeroed(h, &[])
    }

    /// [`Nvm::fold_fnv`] of the image with every word of `zeroed` (word
    /// indices, `start..end`) read as zero. Writes nothing: a touched page
    /// that `zeroed` reaches into is folded from a copy.
    pub fn fold_fnv_zeroed(&self, mut h: u64, zeroed: &[Range<u32>]) -> u64 {
        let page_words = self.page_words();
        let skip = FNV_PRIME.wrapping_pow(page_words.div_ceil(2));
        let mut next = 0;
        for page in self.touched_pages() {
            h = h.wrapping_mul(skip.wrapping_pow(page - next));
            let r = page_range(page, page_words);
            let words = &self.words[r.clone()];
            let (lo, hi) = (r.start as u32, r.end as u32);
            h = if zeroed.iter().any(|z| z.start < hi && lo < z.end) {
                let mut copy = [0; PAGE_WORDS as usize];
                let copy = &mut copy[..words.len()];
                copy.copy_from_slice(words);
                for z in zeroed {
                    let (a, b) = (z.start.max(lo), z.end.min(hi));
                    if a < b {
                        copy[(a - lo) as usize..(b - lo) as usize].fill(0);
                    }
                }
                fold_lanes(h, copy)
            } else {
                fold_lanes(h, words)
            };
            next = page + 1;
        }
        h.wrapping_mul(skip.wrapping_pow(self.len() / page_words - next))
    }

    /// Total counted loads.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total counted stores (an FRAM wear proxy).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Zeroes the contents and counters (fresh chip).
    pub fn reset(&mut self) {
        let page_words = self.page_words();
        for page in set_bits(&self.touched) {
            self.words[page_range(page, page_words)].fill(0);
        }
        self.touched.fill(0);
        self.fenced_loads = 0;
        self.reads = 0;
        self.writes = 0;
    }
}

/// Eats `words` into the FNV-1a hash `h`, one [`fnv_lane`] per pair of
/// words, the even word in the low half.
fn fold_lanes(mut h: u64, words: &[Word]) -> u64 {
    for pair in words.chunks(2) {
        let lo = pair[0] as u32 as u64;
        let hi = pair.get(1).map_or(0, |&w| w as u32 as u64);
        h = fnv_lane(h, lo | (hi << 32));
    }
    h
}

/// The word indices of page `page` of `page_words` words.
fn page_range(page: u32, page_words: u32) -> Range<usize> {
    let start = (page * page_words) as usize;
    start..start + page_words as usize
}

/// The indices of the set bits of `bitmap`, ascending.
fn set_bits(bitmap: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bitmap.iter().enumerate().flat_map(|(i, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                i as u32 * 64 + bit
            })
        })
    })
}

impl Clone for Nvm {
    /// Copies the touched pages into a zeroed allocation.
    fn clone(&self) -> Nvm {
        let mut words = vec![0; self.words.len()];
        for page in self.touched_pages() {
            let r = page_range(page, self.page_words());
            words[r.clone()].copy_from_slice(&self.words[r]);
        }
        Nvm {
            words,
            touched: self.touched.clone(),
            mask: self.mask,
            load_fence: self.load_fence,
            fenced_loads: self.fenced_loads,
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Copies the pages `source` touched and zeroes the ones only `self`
    /// touched; pages neither touched are zero on both sides already.
    fn clone_from(&mut self, source: &Nvm) {
        if self.words.len() != source.words.len() {
            *self = source.clone();
            return;
        }
        let page_words = self.page_words();
        for (i, (mine, &theirs)) in self.touched.iter_mut().zip(&source.touched).enumerate() {
            for bit in set_bits(&[*mine | theirs]) {
                let r = page_range(i as u32 * 64 + bit, page_words);
                if theirs & (1 << bit) != 0 {
                    self.words[r.clone()].copy_from_slice(&source.words[r]);
                } else {
                    self.words[r].fill(0);
                }
            }
            *mine = theirs;
        }
        self.load_fence = source.load_fence;
        self.fenced_loads = source.fenced_loads;
        self.reads = source.reads;
        self.writes = source.writes;
    }
}

impl PartialEq for Nvm {
    fn eq(&self, other: &Nvm) -> bool {
        self.words == other.words
            && self.reads == other.reads
            && self.writes == other.writes
            && self.fenced_loads == other.fenced_loads
    }
}

/// Like equality, leaves the touched marks out.
impl std::fmt::Debug for Nvm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nvm")
            .field("words", &self.words)
            .field("mask", &self.mask)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .field("fenced_loads", &self.fenced_loads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::SplitMix64;

    #[test]
    fn load_store_roundtrip() {
        let mut m = Nvm::new(64);
        m.store(10, -7);
        assert_eq!(m.load(10), -7);
        assert_eq!(m.read(10), -7);
    }

    #[test]
    fn wrapping_addressing() {
        let mut m = Nvm::new(64);
        m.store(64 + 3, 9);
        assert_eq!(m.read(3), 9);
        m.store(u32::MAX, 5); // wraps to 63
        assert_eq!(m.read(63), 5);
    }

    #[test]
    fn counters_track_counted_accesses_only() {
        let mut m = Nvm::new(64);
        m.store(0, 1);
        let _ = m.load(0);
        let _ = m.load(1);
        m.write(2, 3); // uncounted
        let _ = m.read(2); // uncounted
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.read_count(), 2);
    }

    #[test]
    fn image_and_range() {
        let mut m = Nvm::new(64);
        m.write_image(8, &[1, 2, 3]);
        assert_eq!(m.read_range(8, 3), vec![1, 2, 3]);
    }

    #[test]
    fn reset_clears() {
        let mut m = Nvm::new(64);
        m.store(1, 2);
        m.reset();
        assert_eq!(m.read(1), 0);
        assert_eq!(m.write_count(), 0);
    }

    /// The reference for [`Nvm::fold_fnv`]: every lane of the image.
    fn full_scan(mut h: u64, words: &[Word]) -> u64 {
        for pair in words.chunks(2) {
            let lo = pair[0] as u32 as u64;
            let hi = pair.get(1).map_or(0, |&w| w as u32 as u64);
            h = fnv_lane(h, lo | (hi << 32));
        }
        h
    }

    /// The page invariant and everything built on it, against a flat model.
    fn assert_matches_model(m: &Nvm, model: &[Word], what: &str) {
        assert_eq!(m.words(), model, "{what}: words");
        let mut touched = m.touched_pages().peekable();
        for page in 0..m.len() / m.page_words() {
            if touched.next_if_eq(&page).is_none() {
                assert!(
                    model[page_range(page, m.page_words())]
                        .iter()
                        .all(|&w| w == 0),
                    "{what}: untouched page {page} is not zero"
                );
            }
        }
        assert_eq!(touched.next(), None, "{what}: page past the end");
        for seed in [0xcbf2_9ce4_8422_2325, 0] {
            assert_eq!(m.fold_fnv(seed), full_scan(seed, model), "{what}: hash");
        }
        // Ranges inside one page, across a page edge, at the top of the
        // memory and empty ones, next to each other.
        let (len, edge) = (m.len(), m.page_words());
        let zeroed = [
            3..9,
            edge - 5..(edge + 7).min(len),
            len - 20..len - 3,
            len - 2..len,
            40..40,
        ];
        let mut masked = model.to_vec();
        for z in &zeroed {
            masked[z.start as usize..z.end as usize].fill(0);
        }
        let before = (m.read_count(), m.write_count(), m.words().to_vec());
        assert_eq!(
            m.fold_fnv_zeroed(7, &zeroed),
            full_scan(7, &masked),
            "{what}: zeroed hash"
        );
        assert_eq!(
            (m.read_count(), m.write_count(), m.words().to_vec()),
            before,
            "{what}: the zeroed fold writes nothing"
        );
    }

    /// A seeded walk of writes, resets, clones and `clone_from`s over two
    /// memories whose touched sets drift apart, checked after every step
    /// against page-blind `Vec<Word>` models.
    #[test]
    fn touched_pages_match_a_flat_model() {
        let mut rng = SplitMix64::new(0x0A6E_5EED);
        for (size, steps) in [(64u32, 3_000), (65_536, 400)] {
            let mut nvms = [Nvm::new(size), Nvm::new(size)];
            let mut models = [vec![0; size as usize], vec![0; size as usize]];
            let pages = (size / PAGE_WORDS).max(1) as u64;
            for step in 0..steps {
                let k = rng.range_u64(0, 2) as usize;
                // A handful of hot pages keeps both sides sparse, with a
                // rare write anywhere (wrapping past the end included).
                let addr = if rng.range_u64(0, 8) == 0 {
                    rng.next_u64() as u32
                } else {
                    (rng.range_u64(0, pages.min(6)) * u64::from(PAGE_WORDS)
                        + rng.range_u64(0, u64::from(PAGE_WORDS))) as u32
                };
                let value = if rng.range_u64(0, 4) == 0 {
                    0
                } else {
                    rng.next_u64() as Word
                };
                let (m, model) = (&mut nvms[k], &mut models[k]);
                let slot = (addr % size) as usize;
                let what = match rng.range_u64(0, 20) {
                    0..=7 => {
                        m.store(addr, value);
                        model[slot] = value;
                        "store"
                    }
                    8..=11 => {
                        m.write(addr, value);
                        model[slot] = value;
                        "write"
                    }
                    12..=14 => {
                        let image: Vec<Word> = (0..rng.range_u64(1, 600))
                            .map(|_| rng.next_u64() as Word)
                            .collect();
                        m.write_image(addr, &image);
                        for (i, &v) in image.iter().enumerate() {
                            model[(addr.wrapping_add(i as u32) % size) as usize] = v;
                        }
                        "write_image"
                    }
                    15 => {
                        m.reset();
                        model.fill(0);
                        "reset"
                    }
                    16 => {
                        nvms[k] = nvms[1 - k].clone();
                        models[k] = models[1 - k].clone();
                        assert_eq!(nvms[k], nvms[1 - k], "clone equals its source");
                        "clone"
                    }
                    _ => {
                        let [a, b] = &mut nvms;
                        let (dst, src) = if k == 0 { (a, &*b) } else { (b, &*a) };
                        dst.clone_from(src);
                        models[k] = models[1 - k].clone();
                        assert_eq!(
                            dst.words(),
                            src.words(),
                            "clone_from gives the source's words"
                        );
                        assert_eq!(dst, src, "clone_from equals its source");
                        "clone_from"
                    }
                };
                for side in 0..2 {
                    let what = format!("size {size}, step {step}, {what}, side {side}");
                    assert_matches_model(&nvms[side], &models[side], &what);
                }
            }
        }
    }

    #[test]
    fn equality_ignores_the_touched_pages() {
        let mut a = Nvm::new(1024);
        let b = Nvm::new(1024);
        a.write(700, 0);
        assert_eq!(a.touched_pages().collect::<Vec<_>>(), vec![2]);
        assert_eq!(a, b);
        assert_eq!(a.fold_fnv(1), b.fold_fnv(1));
    }

    #[test]
    fn lanes_flipped_between_zero_and_minus_two_minus_one_do_not_cancel() {
        // The words (-2, -1) make the lane `!1`, which the plain lane fold
        // turned into a negation that a second such lane undid.
        let (mut a, mut b) = (Nvm::new(1024), Nvm::new(1024));
        a.write(300, 4);
        b.write(300, 4);
        b.write_image(310, &[-2, -1]);
        b.write_image(330, &[-2, -1]);
        let (a_words, b_words) = (a.words().to_vec(), b.words().to_vec());
        let plain = |words: &[Word]| {
            words.chunks(2).fold(7u64, |h, p| {
                (h ^ (p[0] as u32 as u64 | (p[1] as u32 as u64) << 32)).wrapping_mul(FNV_PRIME)
            })
        };
        assert_eq!(plain(&a_words), plain(&b_words), "the plain fold collides");
        assert_ne!(a.fold_fnv(7), b.fold_fnv(7));
    }

    #[test]
    fn loads_at_the_fence_are_counted() {
        let mut m = Nvm::new(64);
        m.set_load_fence(60);
        m.store(60, 1);
        assert_eq!(m.read(60), 1);
        let _ = m.load(59);
        assert_eq!(m.fenced_load_count(), 0, "uncounted reads and loads below");
        let _ = m.load(60 + 64); // wraps onto the fence
        let _ = m.load(63);
        assert_eq!(m.fenced_load_count(), 2);
        let mut copy = Nvm::new(64);
        copy.clone_from(&m);
        assert_eq!(copy.fenced_load_count(), 2, "clone_from carries the count");
        let _ = copy.load(61);
        assert_eq!(copy.fenced_load_count(), 3, "and the fence");
        m.reset();
        assert_eq!(m.fenced_load_count(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Nvm::new(100);
    }
}
