//! Non-volatile runtime areas used by the rollback schemes: the GECKO
//! checkpoint array and Ratchet's double-buffered register file.
//!
//! Each area names its *boot-only* words: words that only the boot path
//! (or a shutdown that ends in a boot) reads, so a run that does not boot
//! again cannot observe them. [`crate::Simulator::drain_hash`] reads them
//! as zero.

use std::ops::Range;

use gecko_isa::{Reg, RegionId, Word};
use gecko_mcu::Nvm;

/// GECKO's compiler-managed checkpoint storage.
///
/// Layout (word offsets from `base`):
///
/// * `0` — committed region id (single-word atomic commit);
/// * `1` — total boundary crossings (progress stamp for the
///   region-repeat attack detector);
/// * `2` — runtime mode (0 = fresh boot, 1 = JIT enabled, 2 = rollback);
/// * `3` — boot record: region id observed at last boot;
/// * `4` — boot record: crossings observed at last boot;
/// * `5` — reload-pending flag (application restart protocol);
/// * `6` — cycles the device had been on when its last JIT checkpoint ran
///   (the minimum-power-on-period attack detector's evidence);
/// * `7..7+16·3` — the checkpoint array: 3 slots per register (slots 0/1
///   from 2-coloring, slot 2 for coloring fix-up regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeckoArea {
    base: u32,
}

/// GECKO runtime mode persisted in NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeckoMode {
    /// Freshly manufactured device (zeroed NVM).
    Fresh,
    /// JIT checkpointing active (no attack suspected).
    Jit,
    /// Rollback-only: the voltage monitor is distrusted.
    Rollback,
}

impl GeckoArea {
    const REGION: u32 = 0;
    const CROSSINGS: u32 = 1;
    const MODE: u32 = 2;
    const BOOT_REGION: u32 = 3;
    const BOOT_CROSSINGS: u32 = 4;
    const RELOAD: u32 = 5;
    const ON_CYCLES: u32 = 6;
    const SLOTS: u32 = 7;

    /// Words occupied by the area.
    pub const SIZE_WORDS: u32 = 7 + (Reg::COUNT as u32) * 3;

    /// Creates an area at `base`.
    pub fn new(base: u32) -> GeckoArea {
        GeckoArea { base }
    }

    /// The boot-only words, as NVM word ranges: the crossings stamp, the
    /// boot record, `ON_CYCLES` and the checkpoint slots. Their readers are
    /// [`GeckoArea::boot_check_and_record`], [`GeckoArea::take_on_cycles`]
    /// and the rollback's [`GeckoArea::read_slot`], all on the boot path;
    /// [`GeckoArea::commit_region`] reads the stamp only to write it.
    /// The region word, the mode word and the reload flag are read while
    /// running and are not boot-only.
    pub(crate) fn boot_only(&self) -> [Range<u32>; 3] {
        let b = self.base;
        [
            b + Self::CROSSINGS..b + Self::CROSSINGS + 1,
            b + Self::BOOT_REGION..b + Self::BOOT_CROSSINGS + 1,
            b + Self::ON_CYCLES..b + Self::SIZE_WORDS,
        ]
    }

    /// Commits entry into `region`: one atomic word write plus the
    /// crossings stamp.
    pub fn commit_region(&self, nvm: &mut Nvm, region: RegionId) {
        nvm.store(self.base + Self::REGION, region.index() as Word);
        let c = nvm.read(self.base + Self::CROSSINGS);
        nvm.store(self.base + Self::CROSSINGS, c.wrapping_add(1));
    }

    /// The committed region id.
    pub fn committed_region(&self, nvm: &Nvm) -> RegionId {
        RegionId::new(nvm.read(self.base + Self::REGION).max(0) as usize)
    }

    /// The boundary-crossing progress stamp.
    pub fn crossings(&self, nvm: &Nvm) -> Word {
        nvm.read(self.base + Self::CROSSINGS)
    }

    /// The persisted runtime mode.
    pub fn mode(&self, nvm: &Nvm) -> GeckoMode {
        match nvm.read(self.base + Self::MODE) {
            1 => GeckoMode::Jit,
            2 => GeckoMode::Rollback,
            _ => GeckoMode::Fresh,
        }
    }

    /// Persists the runtime mode.
    pub fn set_mode(&self, nvm: &mut Nvm, mode: GeckoMode) {
        let v = match mode {
            GeckoMode::Fresh => 0,
            GeckoMode::Jit => 1,
            GeckoMode::Rollback => 2,
        };
        nvm.store(self.base + Self::MODE, v);
    }

    /// Boot-protocol step for the region-repeat detector: records the
    /// `(region, crossings)` pair observed now and returns `true` when it
    /// is identical to the pair recorded at the previous boot — i.e. no
    /// boundary was crossed between two power outages, the paper's
    /// "power outage occurred more than once in the same program region".
    pub fn boot_check_and_record(&self, nvm: &mut Nvm) -> bool {
        let region = nvm.read(self.base + Self::REGION);
        let crossings = nvm.read(self.base + Self::CROSSINGS);
        let prev_region = nvm.read(self.base + Self::BOOT_REGION);
        let prev_crossings = nvm.read(self.base + Self::BOOT_CROSSINGS);
        nvm.store(self.base + Self::BOOT_REGION, region);
        nvm.store(self.base + Self::BOOT_CROSSINGS, crossings);
        region == prev_region && crossings == prev_crossings
    }

    /// Writes a checkpoint slot.
    pub fn write_slot(&self, nvm: &mut Nvm, reg: Reg, slot: u8, value: Word) {
        debug_assert!(slot <= 2);
        let off = Self::SLOTS + (reg.index() as u32) * 3 + slot as u32;
        nvm.store(self.base + off, value);
    }

    /// Reads a checkpoint slot.
    pub fn read_slot(&self, nvm: &Nvm, reg: Reg, slot: u8) -> Word {
        debug_assert!(slot <= 2);
        let off = Self::SLOTS + (reg.index() as u32) * 3 + slot as u32;
        nvm.read(self.base + off)
    }

    /// Records how long the device had been on when the JIT checkpoint
    /// that preceded a shutdown ran (saturating at `i32::MAX`).
    pub fn record_on_cycles(&self, nvm: &mut Nvm, cycles: u64) {
        nvm.store(
            self.base + Self::ON_CYCLES,
            cycles.min(i32::MAX as u64) as Word,
        );
    }

    /// Takes (reads and clears) the recorded on-duration; `None` when no
    /// checkpoint recorded one since the last boot.
    pub fn take_on_cycles(&self, nvm: &mut Nvm) -> Option<u64> {
        let v = nvm.read(self.base + Self::ON_CYCLES);
        nvm.store(self.base + Self::ON_CYCLES, 0);
        (v > 0).then_some(v as u64)
    }

    /// Sets / clears the application-restart reload flag.
    pub fn set_reload_pending(&self, nvm: &mut Nvm, pending: bool) {
        nvm.store(self.base + Self::RELOAD, pending as Word);
    }

    /// Whether an application restart's data reload is incomplete.
    pub fn reload_pending(&self, nvm: &Nvm) -> bool {
        nvm.read(self.base + Self::RELOAD) != 0
    }
}

/// Ratchet's double-buffered whole-register-file checkpoint storage.
///
/// Layout: `0` — packed commit word `(region << 2) | (buf << 1) | valid`;
/// `1..` — two buffers of 16 registers. The commit word is the single
/// atomic write that flips buffers and records the region, exactly the
/// "flip the first boolean array index variable" of Section VI-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatchetArea {
    base: u32,
}

impl RatchetArea {
    const COMMIT: u32 = 0;
    const BUFS: u32 = 1;

    /// Words occupied by the area.
    pub const SIZE_WORDS: u32 = 1 + 2 * Reg::COUNT as u32;

    /// Creates an area at `base`.
    pub fn new(base: u32) -> RatchetArea {
        RatchetArea { base }
    }

    /// The boot-only words: both register buffers, read only by the boot
    /// path's restore ([`RatchetArea::read_regs`]). The commit word is read
    /// at every region commit and is not boot-only.
    pub(crate) fn boot_only(&self) -> Range<u32> {
        self.base + Self::BUFS..self.base + Self::SIZE_WORDS
    }

    /// The buffer the *next* checkpoint must write (opposite of the
    /// committed one).
    pub fn write_buffer(&self, nvm: &Nvm) -> u32 {
        match self.committed(nvm) {
            Some((_, buf)) => 1 - buf,
            None => 0,
        }
    }

    /// Writes one register into `buf`.
    pub fn write_reg(&self, nvm: &mut Nvm, buf: u32, reg: Reg, value: Word) {
        debug_assert!(buf < 2);
        nvm.store(
            self.base + Self::BUFS + buf * Reg::COUNT as u32 + reg.index() as u32,
            value,
        );
    }

    /// Atomically commits `(region, buf)`.
    pub fn commit(&self, nvm: &mut Nvm, region: RegionId, buf: u32) {
        let packed = ((region.index() as Word) << 2) | ((buf as Word) << 1) | 1;
        nvm.store(self.base + Self::COMMIT, packed);
    }

    /// The committed `(region, buffer)` if a checkpoint exists.
    pub fn committed(&self, nvm: &Nvm) -> Option<(RegionId, u32)> {
        let packed = nvm.read(self.base + Self::COMMIT);
        if packed & 1 == 0 {
            return None;
        }
        Some((
            RegionId::new((packed >> 2) as usize),
            ((packed >> 1) & 1) as u32,
        ))
    }

    /// Reads the full register file from the committed buffer.
    pub fn read_regs(&self, nvm: &Nvm, buf: u32) -> [Word; Reg::COUNT] {
        let mut out = [0; Reg::COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = nvm.read(self.base + Self::BUFS + buf * Reg::COUNT as u32 + i as u32);
        }
        out
    }

    /// Clears the commit word (fresh application start).
    pub fn invalidate(&self, nvm: &mut Nvm) {
        nvm.store(self.base + Self::COMMIT, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gecko_region_commit_roundtrip() {
        let mut nvm = Nvm::new(1 << 10);
        let a = GeckoArea::new(0x200);
        assert_eq!(a.committed_region(&nvm), RegionId::new(0));
        a.commit_region(&mut nvm, RegionId::new(7));
        assert_eq!(a.committed_region(&nvm), RegionId::new(7));
        assert_eq!(a.crossings(&nvm), 1);
        a.commit_region(&mut nvm, RegionId::new(2));
        assert_eq!(a.crossings(&nvm), 2);
    }

    #[test]
    fn gecko_mode_roundtrip() {
        let mut nvm = Nvm::new(1 << 10);
        let a = GeckoArea::new(0x200);
        assert_eq!(a.mode(&nvm), GeckoMode::Fresh);
        a.set_mode(&mut nvm, GeckoMode::Jit);
        assert_eq!(a.mode(&nvm), GeckoMode::Jit);
        a.set_mode(&mut nvm, GeckoMode::Rollback);
        assert_eq!(a.mode(&nvm), GeckoMode::Rollback);
    }

    #[test]
    fn gecko_slots_independent() {
        let mut nvm = Nvm::new(1 << 10);
        let a = GeckoArea::new(0x200);
        a.write_slot(&mut nvm, Reg::R3, 0, 11);
        a.write_slot(&mut nvm, Reg::R3, 1, 22);
        a.write_slot(&mut nvm, Reg::R3, 2, 33);
        a.write_slot(&mut nvm, Reg::R4, 0, 44);
        assert_eq!(a.read_slot(&nvm, Reg::R3, 0), 11);
        assert_eq!(a.read_slot(&nvm, Reg::R3, 1), 22);
        assert_eq!(a.read_slot(&nvm, Reg::R3, 2), 33);
        assert_eq!(a.read_slot(&nvm, Reg::R4, 0), 44);
    }

    #[test]
    fn region_repeat_detector() {
        let mut nvm = Nvm::new(1 << 10);
        let a = GeckoArea::new(0x200);
        a.commit_region(&mut nvm, RegionId::new(1));
        assert!(!a.boot_check_and_record(&mut nvm), "first boot: no repeat");
        // No progress between boots → repeat.
        assert!(a.boot_check_and_record(&mut nvm));
        // Progress resets the detector.
        a.commit_region(&mut nvm, RegionId::new(1));
        assert!(
            !a.boot_check_and_record(&mut nvm),
            "same region id but the crossings stamp moved"
        );
    }

    #[test]
    fn on_cycles_roundtrip_and_clear() {
        let mut nvm = Nvm::new(1 << 10);
        let a = GeckoArea::new(0x200);
        assert_eq!(a.take_on_cycles(&mut nvm), None);
        a.record_on_cycles(&mut nvm, 12345);
        assert_eq!(a.take_on_cycles(&mut nvm), Some(12345));
        assert_eq!(a.take_on_cycles(&mut nvm), None, "cleared after take");
        a.record_on_cycles(&mut nvm, u64::MAX);
        assert_eq!(
            a.take_on_cycles(&mut nvm),
            Some(i32::MAX as u64),
            "saturates"
        );
    }

    #[test]
    fn reload_flag() {
        let mut nvm = Nvm::new(1 << 10);
        let a = GeckoArea::new(0x200);
        assert!(!a.reload_pending(&nvm));
        a.set_reload_pending(&mut nvm, true);
        assert!(a.reload_pending(&nvm));
        a.set_reload_pending(&mut nvm, false);
        assert!(!a.reload_pending(&nvm));
    }

    #[test]
    fn ratchet_double_buffer_flips() {
        let mut nvm = Nvm::new(1 << 10);
        let a = RatchetArea::new(0x300);
        assert_eq!(a.committed(&nvm), None);
        assert_eq!(a.write_buffer(&nvm), 0);
        for r in Reg::all() {
            a.write_reg(&mut nvm, 0, r, r.index() as Word * 10);
        }
        a.commit(&mut nvm, RegionId::new(5), 0);
        assert_eq!(a.committed(&nvm), Some((RegionId::new(5), 0)));
        assert_eq!(
            a.write_buffer(&nvm),
            1,
            "next write goes to the other buffer"
        );
        let regs = a.read_regs(&nvm, 0);
        assert_eq!(regs[3], 30);

        // A partial write of buffer 1 must not disturb buffer 0.
        a.write_reg(&mut nvm, 1, Reg::R3, -1);
        assert_eq!(a.read_regs(&nvm, 0)[3], 30);

        a.invalidate(&mut nvm);
        assert_eq!(a.committed(&nvm), None);
    }
}
