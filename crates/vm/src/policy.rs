//! Page-replacement policies.

/// Which replacement policy the resident set uses.
///
/// DEC OSF/1 used a FIFO-with-second-chance global policy; we provide the
/// three classics so the ablation benches can show how the choice shifts
/// the pagein/pageout mix the pager sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replacement {
    /// Evict the least-recently-used frame.
    Lru,
    /// Evict the first-loaded frame.
    Fifo,
    /// Second-chance clock.
    Clock,
}

/// Internal replacement state over `n` frames.
#[derive(Debug)]
pub(crate) struct ReplacementState {
    policy: Replacement,
    /// LRU: last-access stamp per frame. FIFO: load stamp per frame.
    stamp: Vec<u64>,
    /// Clock reference bits.
    referenced: Vec<bool>,
    hand: usize,
    tick: u64,
}

impl ReplacementState {
    pub(crate) fn new(policy: Replacement, frames: usize) -> Self {
        ReplacementState {
            policy,
            stamp: vec![0; frames],
            referenced: vec![false; frames],
            hand: 0,
            tick: 0,
        }
    }

    /// Records that `frame` was accessed (hit).
    #[inline]
    pub(crate) fn on_access(&mut self, frame: usize) {
        self.tick += 1;
        match self.policy {
            Replacement::Lru => self.stamp[frame] = self.tick,
            Replacement::Fifo => {}
            Replacement::Clock => self.referenced[frame] = true,
        }
    }

    /// Records that `frame` was (re)loaded with a new page.
    pub(crate) fn on_load(&mut self, frame: usize) {
        self.tick += 1;
        self.stamp[frame] = self.tick;
        self.referenced[frame] = true;
    }

    /// Picks the victim frame among the fully-occupied resident set.
    pub(crate) fn choose_victim(&mut self) -> usize {
        match self.policy {
            Replacement::Lru | Replacement::Fifo => self
                .stamp
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .expect("at least one frame"),
            Replacement::Clock => loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.referenced.len();
                if self.referenced[i] {
                    self.referenced[i] = false;
                } else {
                    return i;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut st = ReplacementState::new(Replacement::Lru, 3);
        for f in 0..3 {
            st.on_load(f);
        }
        st.on_access(0);
        st.on_access(2);
        assert_eq!(st.choose_victim(), 1);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut st = ReplacementState::new(Replacement::Fifo, 3);
        for f in 0..3 {
            st.on_load(f);
        }
        st.on_access(0);
        st.on_access(0);
        assert_eq!(st.choose_victim(), 0, "first loaded leaves first");
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut st = ReplacementState::new(Replacement::Clock, 3);
        for f in 0..3 {
            st.on_load(f);
        }
        // All referenced: the hand clears 0,1,2 then returns 0.
        assert_eq!(st.choose_victim(), 0);
        // Now 1 and 2 are unreferenced; accessing 1 saves it.
        st.on_access(1);
        assert_eq!(st.choose_victim(), 2);
    }
}
