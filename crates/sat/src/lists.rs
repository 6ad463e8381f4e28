//! Many growable lists in a few shared blocks: the solver's watch lists
//! and the order theory's adjacency lists, which would otherwise allocate
//! once per literal or per node.
//!
//! A list is a span of one block, and its capacity is a power of two. A
//! push into a full list extends it in place when it ends its block and
//! the block has room, and otherwise moves it to a free span of twice the
//! capacity: one a moved list left behind, or a new one at the end of the
//! last block. Blocks never reallocate; when the last one is full, a new
//! one twice its size joins them, so growing the family never copies it.
//! [`Lists::compact`] drops the free spans when they fill half the slots.
//! Lists never reorder their items when they move, so each reads exactly
//! as a vector of its own would.

use std::ops::{Index, IndexMut, Range};

/// Capacity a list gets on its first push.
const FIRST_CAP: u32 = 4;

/// Slots in the first block.
const FIRST_BLOCK: usize = 1024;

/// A slot number is a block number above this many bits of offset.
const OFFSET_BITS: u32 = 26;
const OFFSET_MASK: usize = (1 << OFFSET_BITS) - 1;
/// Blocks per family: slot numbers stay below 2^32.
const MAX_BLOCKS: usize = 1 << (32 - OFFSET_BITS);

/// Index of a capacity's free-span list.
fn size_class(cap: u32) -> usize {
    (cap / FIRST_CAP).trailing_zeros() as usize
}

/// The block and the offset within it of slot `slot`.
#[inline]
fn split(slot: usize) -> (usize, usize) {
    (slot >> OFFSET_BITS, slot & OFFSET_MASK)
}

/// Where one list lives: its first slot, length and capacity.
#[derive(Copy, Clone, Default, Debug)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// A family of growable lists of `T`, numbered from 0, sharing a few
/// blocks of slots.
#[derive(Debug)]
pub struct Lists<T> {
    blocks: Vec<Vec<T>>,
    spans: Vec<Span>,
    /// First slots of the free spans by size class: spans left behind by
    /// lists that moved, each reused by the next list growing to its
    /// capacity.
    free: Vec<Vec<u32>>,
    /// Slots in free spans.
    garbage: usize,
}

impl<T> Default for Lists<T> {
    fn default() -> Self {
        Lists {
            blocks: Vec::new(),
            spans: Vec::new(),
            free: Vec::new(),
            garbage: 0,
        }
    }
}

impl<T: Copy> Lists<T> {
    /// Creates a family with no lists.
    pub fn new() -> Lists<T> {
        Lists::default()
    }

    /// Adds `n` empty lists at the end of the numbering.
    pub fn add_lists(&mut self, n: usize) {
        self.spans.resize(self.spans.len() + n, Span::default());
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.spans.len()
    }

    /// Slots of list `l`'s items, for a scan that reads them through
    /// `Index<usize>` while it pushes onto other lists: a push moves only
    /// the list it pushes onto.
    #[inline]
    pub fn slots(&self, l: usize) -> Range<usize> {
        let s = self.spans[l];
        s.start as usize..(s.start + s.len) as usize
    }

    /// The items of list `l`.
    #[inline]
    pub fn list(&self, l: usize) -> &[T] {
        let s = self.spans[l];
        let (b, off) = split(s.start as usize);
        match self.blocks.get(b) {
            Some(block) => &block[off..off + s.len as usize],
            None => &[], // a list that never held an item
        }
    }

    /// The items of list `l`, mutably.
    #[inline]
    pub fn list_mut(&mut self, l: usize) -> &mut [T] {
        let s = self.spans[l];
        let (b, off) = split(s.start as usize);
        match self.blocks.get_mut(b) {
            Some(block) => &mut block[off..off + s.len as usize],
            None => &mut [],
        }
    }

    /// Appends `x` to list `l`.
    #[inline]
    pub fn push(&mut self, l: usize, x: T) {
        let s = self.spans[l];
        if s.len == s.cap {
            self.grow(l, x);
        }
        let s = self.spans[l];
        self[(s.start + s.len) as usize] = x;
        self.spans[l].len += 1;
    }

    /// Removes the last item of list `l`.
    #[inline]
    pub fn pop(&mut self, l: usize) -> Option<T> {
        let s = &mut self.spans[l];
        if s.len == 0 {
            return None;
        }
        s.len -= 1;
        let slot = (s.start + s.len) as usize;
        Some(self[slot])
    }

    /// Doubles the capacity of the full list `l`; `fill` pads the slots
    /// past its end.
    fn grow(&mut self, l: usize, fill: T) {
        let s = self.spans[l];
        let cap = (s.cap * 2).max(FIRST_CAP);
        if s.cap > 0 {
            let (b, off) = split(s.start as usize);
            let block = &mut self.blocks[b];
            let end = off + cap as usize;
            if off + s.cap as usize == block.len() && end <= block.capacity() {
                block.resize(end, fill);
                self.spans[l].cap = cap;
                return;
            }
        }
        let start = match self.free.get_mut(size_class(cap)).and_then(Vec::pop) {
            Some(start) => {
                self.garbage -= cap as usize;
                start
            }
            None => self.append(cap as usize, fill),
        };
        self.copy(s.start as usize, start as usize, s.len as usize);
        if s.cap > 0 {
            let class = size_class(s.cap);
            if self.free.len() <= class {
                self.free.resize_with(class + 1, Vec::new);
            }
            self.free[class].push(s.start);
            self.garbage += s.cap as usize;
        }
        self.spans[l] = Span {
            start,
            len: s.len,
            cap,
        };
    }

    /// A fresh span of `cap` slots at the end of the last block, opening
    /// a block twice the last one's size when it has no room.
    fn append(&mut self, cap: usize, fill: T) -> u32 {
        let room = self
            .blocks
            .last()
            .is_some_and(|b| b.capacity() - b.len() >= cap);
        if !room {
            let size = self
                .blocks
                .last()
                .map_or(FIRST_BLOCK, |b| 2 * b.capacity())
                .max(cap)
                .min(OFFSET_MASK + 1);
            assert!(
                cap <= size && self.blocks.len() < MAX_BLOCKS,
                "lists exceed 2^32 slots"
            );
            self.blocks.push(Vec::with_capacity(size));
        }
        let b = self.blocks.len() - 1;
        let block = &mut self.blocks[b];
        let off = block.len();
        block.resize(off + cap, fill);
        ((b << OFFSET_BITS) | off) as u32
    }

    /// Copies `len` items from slot `from` on to slot `to`.
    fn copy(&mut self, from: usize, to: usize, len: usize) {
        let ((fb, fo), (tb, to)) = (split(from), split(to));
        if fb == tb {
            self.blocks[fb].copy_within(fo..fo + len, to);
        } else {
            let (src, dst) = if fb < tb {
                let (lo, hi) = self.blocks.split_at_mut(tb);
                (&lo[fb], &mut hi[0])
            } else {
                let (lo, hi) = self.blocks.split_at_mut(fb);
                (&hi[0], &mut lo[tb])
            };
            dst[to..to + len].copy_from_slice(&src[fo..fo + len]);
        }
    }

    /// Removes the item at `pos` of list `l`, moving the list's last item
    /// into its place.
    pub fn swap_remove(&mut self, l: usize, pos: usize) {
        let list = self.list_mut(l);
        let last = list.len() - 1;
        list[pos] = list[last];
        self.spans[l].len -= 1;
    }

    /// Ends a scan of list `l` that kept its survivors in the slots before
    /// `kept` and stopped before slot `next`: the unscanned tail moves down
    /// behind the survivors.
    #[inline]
    pub fn finish_scan(&mut self, l: usize, kept: usize, next: usize) {
        let end = self.slots(l).end;
        if next < end {
            let (b, next_off) = split(next);
            let off = |slot: usize| slot & OFFSET_MASK;
            self.blocks[b].copy_within(next_off..off(end - 1) + 1, off(kept));
        }
        self.spans[l].len -= (next - kept) as u32;
    }

    /// Gathers every list into one block, in list order, once the free
    /// spans fill half the slots (and the lists fit one block). Lists
    /// change place, so no scan may be open.
    pub fn compact(&mut self) {
        let used: usize = self.blocks.iter().map(Vec::len).sum();
        if self.garbage * 2 <= used {
            return;
        }
        if used - self.garbage > OFFSET_MASK + 1 {
            return; // more than one block holds
        }
        let mut block = Vec::with_capacity(used - self.garbage);
        for s in &mut self.spans {
            let start = block.len();
            if s.cap > 0 {
                let (b, off) = split(s.start as usize);
                block.extend_from_slice(&self.blocks[b][off..off + s.cap as usize]);
            }
            s.start = start as u32;
        }
        self.blocks = vec![block];
        self.free.clear();
        self.garbage = 0;
    }
}

impl<T> Index<usize> for Lists<T> {
    type Output = T;

    /// The item in slot `slot` (see [`Lists::slots`]).
    #[inline]
    fn index(&self, slot: usize) -> &T {
        let (b, off) = split(slot);
        &self.blocks[b][off]
    }
}

impl<T> IndexMut<usize> for Lists<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        let (b, off) = split(slot);
        &mut self.blocks[b][off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists_of(l: &Lists<u32>) -> Vec<Vec<u32>> {
        (0..l.num_lists()).map(|i| l.list(i).to_vec()).collect()
    }

    fn used(l: &Lists<u32>) -> usize {
        l.blocks.iter().map(Vec::len).sum()
    }

    /// Interleaved pushes move lists around the blocks; each keeps its
    /// order, as a vector of its own would, through growth, reused free
    /// spans, pops and compaction.
    #[test]
    fn lists_read_like_vectors() {
        let mut l = Lists::new();
        l.add_lists(6);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); 6];
        let mut n = 0;
        for round in 0..40 {
            for (i, m) in model.iter_mut().enumerate() {
                if (round + i) % (i + 1) == 0 {
                    l.push(i, n);
                    m.push(n);
                    n += 1;
                }
                if round % 7 == 6 && i % 2 == 1 {
                    assert_eq!(l.pop(i), m.pop());
                }
            }
        }
        assert_eq!(lists_of(&l), model);
        assert!(l.garbage > 0, "some list moved");
        let before = used(&l);
        l.garbage = before; // force the rebuild
        l.compact();
        assert_eq!(l.blocks.len(), 1);
        assert!(used(&l) <= before);
        assert_eq!(lists_of(&l), model);
        l.push(0, n);
        model[0].push(n);
        assert_eq!(lists_of(&l), model);
    }

    #[test]
    fn moved_lists_leave_reusable_spans() {
        let mut l = Lists::new();
        l.add_lists(3);
        // List 0 fills its first span, list 1 lands behind it, and list 0
        // then moves to the end, freeing a span of capacity 4.
        for i in 0..4 {
            l.push(0, i);
        }
        l.push(1, 10);
        l.push(0, 4);
        assert_eq!(l.garbage, 4);
        let len = used(&l);
        // List 2's first span is the freed one: no slot is added.
        l.push(2, 20);
        assert_eq!(used(&l), len);
        assert_eq!(l.garbage, 0);
        assert_eq!(lists_of(&l), vec![vec![0, 1, 2, 3, 4], vec![10], vec![20]]);
    }

    #[test]
    fn scans_and_removals_keep_the_rest_in_order() {
        let mut l = Lists::new();
        l.add_lists(1);
        for i in 0..6 {
            l.push(0, i);
        }
        // Keep 0 and 2 of the first four scanned, leave 4 and 5 unscanned.
        let slots = l.slots(0);
        let (mut kept, next) = (slots.start, slots.start + 4);
        for i in slots.start..next {
            if l[i] % 2 == 0 {
                l[kept] = l[i];
                kept += 1;
            }
        }
        l.finish_scan(0, kept, next);
        assert_eq!(l.list(0), &[0, 2, 4, 5]);
        l.swap_remove(0, 1);
        assert_eq!(l.list(0), &[0, 5, 4]);
    }

    /// Blocks fill up and new ones open without moving what the old ones
    /// hold; a list too long for the next block size gets a block of its
    /// own size.
    #[test]
    fn blocks_open_without_moving_lists() {
        let mut l = Lists::new();
        l.add_lists(2);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); 2];
        for n in 0..5000 {
            l.push(0, n);
            model[0].push(n);
            if n % 3 == 0 {
                l.push(1, n);
                model[1].push(n);
            }
        }
        assert!(l.blocks.len() > 1);
        assert!(l.blocks.iter().all(|b| b.len() <= b.capacity()));
        assert_eq!(lists_of(&l), model);
        let slots = l.slots(0);
        assert_eq!(l[slots.start + 4321], 4321);
    }
}
