//! Flat sort-based gather: the datatype pipeline's answer to the edge
//! builder's sort-based dedup (`crates/core/src/deps.rs`).
//!
//! Datatype gather used to bucket each key's occurrences into a
//! `FxHashMap<Key, KeyData>` — one hash probe per micro-op, scattered
//! node allocations, and a separate key sort before analysis. Instead,
//! [`KeySlots`] interns the (already sorted) key universe into dense
//! slot ids, each datatype appends flat `(slot, occurrence)` tuples to
//! a [`GatherBuf`] during its single history scan, and one stable
//! counting sort groups them into contiguous per-key runs
//! ([`Grouped`]). `analyze_keys` then hands every driver a `&[Occ]`
//! slice in ascending key order, and no `FxHashMap<Key, …>` remains on
//! the hot path.
//!
//! The counting-sort scratch comes from the thread-local buffer pool
//! ([`crate::pool`]), so repeated runs — streaming epochs, benchmark
//! sweeps — recycle pre-faulted pages instead of paying first-touch
//! faults on every build. The items side recycles unconditionally
//! through the pool's layout-keyed arena (`pool::take_layout` /
//! `put_layout`): history-borrowing occurrence types can't be
//! type-erased behind a `TypeId`, but their raw backing storage only
//! has a `(size, align)`, so the scan-order buffer and the grouped copy
//! both come back on later runs regardless of lifetimes.

use crate::pool;
use elle_history::Key;

/// A sorted, deduplicated key universe with dense slot ids: slot `i`
/// is the `i`-th smallest key. Replaces the per-run `FxHashSet<Key>`
/// — membership is a binary search (hash-free, cache-friendly for the
/// few hundred distinct keys a run typically owns), and the slot ids
/// double as counting-sort buckets for [`GatherBuf::group`].
#[derive(Debug, Clone, Default)]
pub struct KeySlots {
    keys: Vec<Key>,
}

impl KeySlots {
    /// Build from an arbitrary key list (sorted and deduplicated here).
    pub fn new(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        KeySlots { keys }
    }

    /// Build from a slice already in sorted order (`KeyTypes::keys_of`
    /// returns one); debug-asserted, not re-sorted.
    pub fn from_sorted(keys: Vec<Key>) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        KeySlots { keys }
    }

    /// The slot of `key`, if it belongs to this universe.
    #[inline]
    pub fn slot_of(&self, key: Key) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|i| i as u32)
    }

    /// Whether `key` belongs to this universe.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// The key occupying `slot` (slots are dense: `0..len`).
    #[inline]
    pub fn key(&self, slot: u32) -> Key {
        self.keys[slot as usize]
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, ascending.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }
}

impl FromIterator<Key> for KeySlots {
    fn from_iter<I: IntoIterator<Item = Key>>(iter: I) -> Self {
        KeySlots::new(iter.into_iter().collect())
    }
}

/// A packed append-only buffer of `(key slot, occurrence)` tuples —
/// what one datatype emits during its single scan over the scoped
/// transactions. Occurrences stay in scan order; [`GatherBuf::group`]
/// sorts them by slot *stably*, so each key's run replays the exact
/// sequence a per-key `Vec` push would have produced.
#[derive(Debug)]
pub struct GatherBuf<T> {
    slots: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for GatherBuf<T> {
    fn default() -> Self {
        GatherBuf::new()
    }
}

impl<T> GatherBuf<T> {
    /// A fresh buffer with both sides recycled from the buffer pool:
    /// slot storage from the `u32` pool, items from the layout-keyed
    /// arena (which serves history-borrowing occurrence types too).
    pub fn new() -> Self {
        GatherBuf {
            slots: pool::take_u32_empty(),
            items: pool::take_layout(),
        }
    }

    /// Reserve room for `n` more occurrences.
    pub fn reserve(&mut self, n: usize) {
        self.slots.reserve(n);
        self.items.reserve(n);
    }

    /// Append one occurrence of the key at `slot`.
    #[inline]
    pub fn push(&mut self, slot: u32, item: T) {
        self.slots.push(slot);
        self.items.push(item);
    }

    /// Occurrences appended so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Buffer footprint in bytes (the peak-gather gauge).
    pub fn footprint_bytes(&self) -> usize {
        self.slots.len() * 4 + self.items.len() * std::mem::size_of::<T>()
    }

    /// Disassemble into `(slots, items)` without grouping — the escape
    /// hatch the differential reference pipeline uses to bucket the same
    /// occurrence stream through a hash map instead.
    pub fn into_parts(self) -> (Vec<u32>, Vec<T>) {
        (self.slots, self.items)
    }

    /// Group the occurrences into contiguous per-slot runs with one
    /// stable counting sort: O(len + n_slots), no hashing, no
    /// comparison sort. `n_slots` is the key-universe size
    /// ([`KeySlots::len`]); every pushed slot must be `< n_slots`.
    pub fn group(self, n_slots: usize) -> Grouped<T>
    where
        T: Copy,
    {
        // Both the scan-order items and the grouped copy cycle through
        // the layout arena, which folds them into the pool's peak gauge
        // as they are stashed.
        let (grouped, items) = self.group_core(n_slots, pool::take_layout());
        pool::put_layout(items);
        grouped
    }

    fn group_core(self, n_slots: usize, mut grouped: Vec<T>) -> (Grouped<T>, Vec<T>)
    where
        T: Copy,
    {
        let GatherBuf { slots, mut items } = self;
        let n = items.len();
        debug_assert!(n < u32::MAX as usize);

        // Histogram into offsets[s + 1], then prefix-sum so that
        // offsets[s]..offsets[s + 1] is slot s's run.
        let mut offsets = pool::take_u32(n_slots + 1);
        for &s in &slots {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..=n_slots {
            offsets[i] += offsets[i - 1];
        }

        // idx[p] = scan position of the occurrence that ends up at
        // grouped position p: stable, since positions within a slot are
        // handed out in scan order.
        let mut cursor = pool::take_u32_empty();
        cursor.extend_from_slice(&offsets[..n_slots]);
        let mut idx = pool::take_u32(n);
        for (i, &s) in slots.iter().enumerate() {
            let c = &mut cursor[s as usize];
            idx[*c as usize] = i as u32;
            *c += 1;
        }
        pool::put_u32(slots);
        pool::put_u32(cursor);

        // Out-of-place gather through the permutation index: one random
        // read plus one sequential write per occurrence. Beats an
        // in-place cycle-chasing permutation at 512k+ histories (swap
        // chains serialize on cache misses), at the cost of a second,
        // transient items allocation.
        grouped.reserve(n);
        grouped.extend(idx[..n].iter().map(|&i| items[i as usize]));
        pool::put_u32(idx);
        items.clear();

        (
            Grouped {
                items: grouped,
                offsets,
            },
            items,
        )
    }
}

/// The grouped output of [`GatherBuf::group`]: all occurrences in one
/// contiguous allocation, slot runs addressed through an offset table.
#[derive(Debug)]
pub struct Grouped<T> {
    items: Vec<T>,
    /// `n_slots + 1` entries; run `s` is `items[offsets[s]..offsets[s+1]]`.
    offsets: Vec<u32>,
}

impl<T> Grouped<T> {
    /// The occurrences of the key at `slot`, in original scan order.
    #[inline]
    pub fn run(&self, slot: u32) -> &[T] {
        let s = slot as usize;
        &self.items[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Slots with at least one occurrence, ascending — exactly the keys
    /// the old hash-map gather would have created entries for.
    pub fn occupied(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.offsets.len() - 1)
            .filter(|&s| self.offsets[s] < self.offsets[s + 1])
            .map(|s| s as u32)
    }

    /// Total occurrences across all slots.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no occurrences at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Footprint in bytes (items + offset table).
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.items.len() * std::mem::size_of::<T>()
    }
}

impl<T> Drop for Grouped<T> {
    fn drop(&mut self) {
        pool::put_u32(std::mem::take(&mut self.offsets));
        pool::put_layout(std::mem::take(&mut self.items));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_slots_intern_and_look_up() {
        let ks = KeySlots::new(vec![Key(7), Key(3), Key(7), Key(5)]);
        assert_eq!(ks.keys(), &[Key(3), Key(5), Key(7)]);
        assert_eq!(ks.slot_of(Key(5)), Some(1));
        assert_eq!(ks.slot_of(Key(4)), None);
        assert!(ks.contains(Key(3)));
        assert_eq!(ks.key(2), Key(7));
    }

    #[test]
    fn group_is_a_stable_bucket_sort() {
        let mut buf: GatherBuf<&str> = GatherBuf::new();
        for (slot, item) in [
            (2, "c0"),
            (0, "a0"),
            (2, "c1"),
            (1, "b0"),
            (0, "a1"),
            (2, "c2"),
        ] {
            buf.push(slot, item);
        }
        let g = buf.group(4);
        assert_eq!(g.run(0), &["a0", "a1"]);
        assert_eq!(g.run(1), &["b0"]);
        assert_eq!(g.run(2), &["c0", "c1", "c2"]);
        assert_eq!(g.run(3), &[] as &[&str]);
        assert_eq!(g.occupied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn group_matches_hash_map_reference_on_random_streams() {
        // Deterministic pseudo-random stream; compare against the
        // retained per-key Vec reference.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n_slots in [1usize, 3, 17, 64] {
            let mut buf: GatherBuf<u64> = GatherBuf::new();
            let mut reference: Vec<Vec<u64>> = vec![Vec::new(); n_slots];
            for i in 0..500u64 {
                let slot = (next() % n_slots as u64) as u32;
                buf.push(slot, i);
                reference[slot as usize].push(i);
            }
            let g = buf.group(n_slots);
            for (slot, expect) in reference.iter().enumerate() {
                assert_eq!(g.run(slot as u32), expect.as_slice());
            }
        }
    }

    #[test]
    fn pooled_path_groups_identically_and_recycles() {
        let fill = |buf: &mut GatherBuf<u64>| {
            for (slot, item) in [(2, 20), (0, 1), (2, 21), (1, 10), (0, 2)] {
                buf.push(slot, item);
            }
        };
        let mut first: GatherBuf<u64> = GatherBuf::new();
        fill(&mut first);
        let g1 = first.group(3);
        drop(g1);

        // Dropping the grouped output returns its items allocation to
        // the pool; the next buffer draws it back and groups the same.
        let mut second: GatherBuf<u64> = GatherBuf::new();
        assert!(second.items.capacity() >= 5, "items allocation recycled");
        fill(&mut second);
        let g2 = second.group(3);
        assert_eq!(g2.run(0), &[1, 2]);
        assert_eq!(g2.run(1), &[10]);
        assert_eq!(g2.run(2), &[20, 21]);
    }

    #[test]
    fn empty_buffer_groups_cleanly() {
        let buf: GatherBuf<u8> = GatherBuf::new();
        let g = buf.group(5);
        assert!(g.is_empty());
        assert_eq!(g.occupied().count(), 0);
        assert_eq!(g.run(4), &[] as &[u8]);
    }
}
