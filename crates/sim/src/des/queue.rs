//! The future-event set: time buckets with a canonical pop order.
//!
//! Events are grouped into buckets of [`BUCKET_WIDTH`] virtual
//! microseconds, kept in time order. [`BucketQueue::pop_window`] drains
//! the whole buckets that lie below the window end, splits the one
//! bucket the end falls into, and sorts what it took by [`OrderKey`].
//! Keys are globally unique and assigned only in sequential engine
//! phases, so the sorted result is exactly the sequence a single global
//! heap would pop: the bucket width decides only how much each window
//! scans, never the order. The property test below checks this against
//! a reference sort over windows that end mid-bucket and span many
//! buckets.

use crate::event::Micros;
use std::collections::BTreeMap;

/// Ordering class for deliveries: at the same instant, a message
/// delivery is processed before a timer wake (a fixed, documented rule).
pub const CLASS_DELIVER: u8 = 0;
/// Ordering class for timer wakes.
pub const CLASS_WAKE: u8 = 1;

/// Width of one time bucket in virtual microseconds. A quarter of the
/// 1 ms same-city latency that bounds a window, so a window drains a few
/// whole buckets and splits at most one. Affects speed only.
const BUCKET_WIDTH: Micros = 256;

/// Canonical ordering key: `(time, class, tiebreak)`.
///
/// Delivery tiebreaks are engine-global sequence numbers handed out in
/// the sequential barrier phase (sends are serialized there in canonical
/// order); wake tiebreaks are node ids. Both are independent of
/// worker-thread interleaving, so the sorted pop order is too.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct OrderKey {
    /// Virtual time of the event.
    pub time: Micros,
    /// [`CLASS_DELIVER`] or [`CLASS_WAKE`].
    pub class: u8,
    /// Engine-global delivery sequence number, or the waking node id.
    pub tiebreak: u64,
}

/// The events whose time falls in one bucket, unordered.
struct Bucket<T> {
    /// Earliest event time in `events`.
    min_time: Micros,
    events: Vec<(OrderKey, T)>,
}

/// A future-event set of time buckets, with payloads stored inline.
pub struct BucketQueue<T> {
    /// Buckets by `time / BUCKET_WIDTH`; none is empty.
    buckets: BTreeMap<Micros, Bucket<T>>,
}

impl<T> Default for BucketQueue<T> {
    fn default() -> Self {
        BucketQueue {
            buckets: BTreeMap::new(),
        }
    }
}

impl<T> BucketQueue<T> {
    /// An empty queue.
    pub fn new() -> BucketQueue<T> {
        BucketQueue::default()
    }

    /// Schedules an event under `key`.
    pub fn schedule(&mut self, key: OrderKey, item: T) {
        let bucket = self
            .buckets
            .entry(key.time / BUCKET_WIDTH)
            .or_insert_with(|| Bucket {
                min_time: key.time,
                events: Vec::new(),
            });
        bucket.min_time = bucket.min_time.min(key.time);
        bucket.events.push((key, item));
    }

    /// The earliest pending event time.
    pub fn next_time(&self) -> Option<Micros> {
        self.buckets.first_key_value().map(|(_, b)| b.min_time)
    }

    /// Drains every event with `time < end` and returns them sorted by
    /// [`OrderKey`] — the same sequence a single global heap would pop,
    /// whatever the bucket width.
    pub fn pop_window(&mut self, end: Micros) -> Vec<(OrderKey, T)> {
        let mut out = Vec::new();
        // Buckets below this index hold only times below `end`.
        let whole = end / BUCKET_WIDTH;
        while let Some(mut entry) = self.buckets.first_entry() {
            if *entry.key() < whole {
                let mut events = entry.remove().events;
                if out.is_empty() {
                    out = events;
                } else {
                    out.append(&mut events);
                }
                continue;
            }
            // The bucket `end` falls into: take its events below `end`.
            let bucket = entry.get_mut();
            if bucket.min_time < end {
                out.extend(bucket.events.extract_if(.., |(k, _)| k.time < end));
                match bucket.events.iter().map(|(k, _)| k.time).min() {
                    Some(t) => bucket.min_time = t,
                    None => {
                        entry.remove();
                    }
                }
            }
            break;
        }
        // Keys are globally unique, so the order is total.
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::rng::Rng;

    fn key(time: Micros, class: u8, tiebreak: u64) -> OrderKey {
        OrderKey {
            time,
            class,
            tiebreak,
        }
    }

    /// Interleaves random schedules with random windows and checks every
    /// window against a reference: the pending keys below the window end,
    /// sorted. Windows end mid-bucket, at bucket edges, and span many
    /// buckets; some events land below earlier window ends.
    #[test]
    fn pop_window_matches_a_reference_sort() {
        for seed in [7u64, 21, 1234, 9_999] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut q = BucketQueue::new();
            let mut pending: Vec<OrderKey> = Vec::new();
            let mut now: Micros = 0;
            let mut tiebreak = 0u64;
            for _ in 0..400 {
                for _ in 0..rng.gen_range_u64(40) {
                    // Mostly ahead of the frontier, as the engine schedules;
                    // sometimes at or behind it.
                    let time = if rng.gen_range_u64(8) == 0 {
                        now.saturating_sub(rng.gen_range_u64(3 * BUCKET_WIDTH))
                    } else {
                        now + rng.gen_range_u64(40 * BUCKET_WIDTH)
                    };
                    let class = if rng.gen_range_u64(2) == 0 {
                        CLASS_DELIVER
                    } else {
                        CLASS_WAKE
                    };
                    // Unique tiebreaks make keys total, as in the engine.
                    tiebreak += 1;
                    let k = key(time, class, tiebreak);
                    q.schedule(k, tiebreak);
                    pending.push(k);
                }
                let min = pending.iter().map(|k| k.time).min();
                assert_eq!(q.next_time(), min, "seed {seed}");
                now += match rng.gen_range_u64(4) {
                    0 => 1,
                    1 => BUCKET_WIDTH,
                    2 => rng.gen_range_u64(BUCKET_WIDTH) + 1,
                    _ => rng.gen_range_u64(12 * BUCKET_WIDTH) + 1,
                };
                let popped = q.pop_window(now);
                let mut want: Vec<OrderKey> =
                    pending.iter().copied().filter(|k| k.time < now).collect();
                want.sort();
                pending.retain(|k| k.time >= now);
                let got: Vec<OrderKey> = popped.iter().map(|(k, _)| *k).collect();
                assert_eq!(got, want, "seed {seed}, window end {now}");
                assert!(popped.iter().all(|(k, item)| k.tiebreak == *item));
            }
            let rest = q.pop_window(Micros::MAX);
            assert_eq!(rest.len(), pending.len());
            assert_eq!(q.next_time(), None);
        }
    }

    #[test]
    fn deliveries_sort_before_wakes_at_the_same_instant() {
        let mut q = BucketQueue::new();
        q.schedule(key(10, CLASS_WAKE, 3), "wake");
        q.schedule(key(10, CLASS_DELIVER, 99), "deliver");
        let popped = q.pop_window(11);
        assert_eq!(
            popped.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
            vec!["deliver", "wake"]
        );
    }

    #[test]
    fn window_end_is_exclusive_and_next_time_tracks_splits() {
        let mut q: BucketQueue<()> = BucketQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(key(50, CLASS_DELIVER, 0), ());
        q.schedule(key(20, CLASS_WAKE, 2), ());
        q.schedule(key(3 * BUCKET_WIDTH + 1, CLASS_WAKE, 5), ());
        assert_eq!(q.next_time(), Some(20));
        assert_eq!(q.pop_window(20).len(), 0);
        // Splitting the first bucket leaves its later event behind.
        assert_eq!(q.pop_window(21).len(), 1);
        assert_eq!(q.next_time(), Some(50));
        assert_eq!(q.pop_window(51).len(), 1);
        assert_eq!(q.next_time(), Some(3 * BUCKET_WIDTH + 1));
        assert_eq!(q.pop_window(Micros::MAX).len(), 1);
        assert_eq!(q.next_time(), None);
    }
}
