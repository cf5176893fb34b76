//! Process-wide memo for checks whose verdict depends only on input bytes.
//!
//! Key validation and transaction signature verification are pure
//! functions of the exact bytes checked, and the same bytes arrive many
//! times: every copy of a gossiped vote, every block that carries a
//! transaction the pool already admitted. A [`Memo`] remembers the
//! *passing* inputs, keyed by 32 bytes (the key encoding itself, or a
//! SHA-256 content id). Failing inputs are never stored, so they pay the
//! full check on every call. The memo is bounded: when it reaches its
//! capacity it is cleared and refills from live traffic. See DESIGN.md §4
//! for why this is sound.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A bounded, thread-safe map from 32-byte inputs that passed a check to
/// what the check produced.
pub struct Memo<V> {
    cap: usize,
    map: OnceLock<Mutex<HashMap<[u8; 32], V>>>,
}

impl<V: Copy> Memo<V> {
    /// An empty memo holding at most `cap` entries. `const`, so a memo
    /// can be a `static`.
    pub const fn new(cap: usize) -> Memo<V> {
        Memo {
            cap,
            map: OnceLock::new(),
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<[u8; 32], V>> {
        // Every critical section below leaves the map consistent, so a
        // panic elsewhere while holding the lock poisons nothing real.
        self.map
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the memoized value for `key`, or runs `check` and stores
    /// its value if it passes. An error is returned as is and never
    /// stored. `check` runs without the lock held, so concurrent callers
    /// are never serialized behind a slow check.
    ///
    /// # Errors
    ///
    /// Whatever `check` returns.
    pub fn get_or_check<E>(
        &self,
        key: &[u8; 32],
        check: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.map().get(key) {
            return Ok(*v);
        }
        let v = check()?;
        let mut map = self.map();
        if map.len() >= self.cap {
            map.clear();
        }
        map.insert(*key, v);
        Ok(v)
    }

    /// True if `key` passed its check and is still memoized.
    pub fn contains(&self, key: &[u8; 32]) -> bool {
        self.map().contains_key(key)
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> [u8; 32] {
        let mut k = [0u8; 32];
        k[..4].copy_from_slice(&i.to_le_bytes());
        k
    }

    #[test]
    fn hit_skips_the_check() {
        let memo: Memo<u32> = Memo::new(8);
        assert_eq!(memo.get_or_check(&key(1), || Ok::<_, ()>(7)), Ok(7));
        assert_eq!(
            memo.get_or_check(&key(1), || -> Result<u32, ()> { panic!("rechecked") }),
            Ok(7)
        );
    }

    #[test]
    fn failures_are_never_stored() {
        let memo: Memo<()> = Memo::new(8);
        let mut calls = 0;
        for _ in 0..3 {
            let r = memo.get_or_check(&key(1), || {
                calls += 1;
                Err("bad")
            });
            assert_eq!(r, Err("bad"));
        }
        assert_eq!(calls, 3, "a failing input pays the check every time");
        assert!(memo.is_empty());
    }

    #[test]
    fn clears_when_full_and_stays_within_cap() {
        let memo: Memo<()> = Memo::new(4);
        for i in 0..4 {
            memo.get_or_check(&key(i), || Ok::<_, ()>(())).unwrap();
        }
        assert_eq!(memo.len(), 4);
        memo.get_or_check(&key(4), || Ok::<_, ()>(())).unwrap();
        assert_eq!(
            memo.len(),
            1,
            "a full memo clears, then stores the new entry"
        );
        assert!(memo.contains(&key(4)) && !memo.contains(&key(0)));
        for i in 0..100 {
            memo.get_or_check(&key(i), || Ok::<_, ()>(())).unwrap();
            assert!(memo.len() <= 4);
        }
    }
}
