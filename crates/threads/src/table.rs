//! The slot table a PE keeps its thread objects in: a vector of slots,
//! each with a **generation**, and a free list.
//!
//! An id is `generation << 32 | slot index`, so finding a slot is an
//! index and a compare — no hash. Releasing a slot advances its
//! generation: an id handed out for an earlier occupant (a resume message
//! still queued, a handle kept past the thread's exit) finds nothing
//! instead of the slot's next occupant. A released slot keeps its value:
//! a claim re-uses what the last occupant left in place of allocating.
//! Generations wrap; an id is then ambiguous only against one kept across
//! 2³² re-uses of its slot.

/// See the [module docs](self).
#[derive(Default)]
pub struct SlotTable<T> {
    slots: Vec<Slot<T>>,
    /// Indices of vacant slots; the last released is claimed first.
    free: Vec<u32>,
    /// Generation a slot starts at.
    first_generation: u32,
}

struct Slot<T> {
    generation: u32,
    live: bool,
    value: T,
}

/// The slot index an id names.
#[inline(always)]
pub fn index_of(id: u64) -> u32 {
    id as u32
}

impl<T> SlotTable<T> {
    /// An empty table whose slots start at `generation`: 0, or near
    /// `u32::MAX` for a test to cross the wrap.
    pub fn new(generation: u32) -> SlotTable<T> {
        SlotTable {
            slots: Vec::new(),
            free: Vec::new(),
            first_generation: generation,
        }
    }

    /// Occupy a slot: a vacant one, with the value its last occupant
    /// left, else a new one holding `fresh()`. Returns its id.
    pub fn claim(&mut self, fresh: impl FnOnce() -> T) -> (u64, &mut T) {
        let index = self.free.pop().unwrap_or_else(|| {
            let index = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots");
            self.slots.push(Slot {
                generation: self.first_generation,
                live: false,
                value: fresh(),
            });
            index
        });
        let slot = &mut self.slots[index as usize];
        slot.live = true;
        (
            (slot.generation as u64) << 32 | index as u64,
            &mut slot.value,
        )
    }

    /// The occupant `id` names; `None` once it was released, whoever
    /// holds the slot now.
    #[inline(always)]
    pub fn get(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slots.get_mut(index_of(id) as usize)?;
        (slot.live && slot.generation == (id >> 32) as u32).then_some(&mut slot.value)
    }

    /// The occupant of slot `index`, which must be live (the running
    /// thread's own slot is).
    #[inline(always)]
    pub fn at(&mut self, index: u32) -> &mut T {
        let slot = &mut self.slots[index as usize];
        debug_assert!(slot.live, "slot {index} is vacant");
        &mut slot.value
    }

    /// Vacate the slot `id` names and retire the id; the value stays for
    /// the next claim. `false` if `id` names no occupant.
    pub fn release(&mut self, id: u64) -> bool {
        if self.get(id).is_none() {
            return false;
        }
        let slot = &mut self.slots[index_of(id) as usize];
        slot.live = false;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index_of(id));
        true
    }

    /// Every occupant with its id, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let live = self.slots.iter().enumerate().filter(|(_, s)| s.live);
        live.map(|(i, s)| ((s.generation as u64) << 32 | i as u64, &s.value))
    }
}
