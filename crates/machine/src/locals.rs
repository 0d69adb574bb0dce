//! Typed PE-local storage (the `Cpv` analogue): one value per type per
//! PE, created on first request and resolved on every message after.
//!
//! A registry in the style of the handler table ([`AppendTable`]): an
//! entry is appended the first time its type is asked for and never
//! moves, so resolving a runtime's state is a short scan of `TypeId`s
//! that hands out a borrow — no lock, no hash and no `Arc` clone. A PE
//! holds about as many entries as it has language runtimes installed.
//!
//! An entry is claimed under the `claiming` mutex, but its initializer
//! runs outside it, inside the entry's own `OnceLock`: at most once per
//! type however many threads race, and free to ask for PE-local values
//! of *other* types — a runtime's initializer typically installs the
//! runtimes it is built on. (Asking for its own type from inside an
//! initializer is an error, as for any `OnceLock`.)

use crate::append::AppendTable;
use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::sync::{Arc, OnceLock};

pub(crate) type Value = Arc<dyn Any + Send + Sync>;

struct Entry {
    ty: TypeId,
    /// Empty while the type's initializer runs.
    value: OnceLock<Value>,
}

pub(crate) struct Locals {
    entries: AppendTable<Entry>,
    /// Held while a new type's entry is looked up again and appended.
    claiming: Mutex<()>,
}

impl Locals {
    pub(crate) fn new() -> Self {
        Locals {
            entries: AppendTable::new(),
            claiming: Mutex::new(()),
        }
    }

    #[inline]
    fn entry(&self, ty: TypeId) -> Option<&Entry> {
        self.entries.find(|e| e.ty == ty)
    }

    /// The value of type `ty`, if its initializer has finished.
    #[inline]
    pub(crate) fn get(&self, ty: TypeId) -> Option<&Value> {
        self.entry(ty)?.value.get()
    }

    /// The value of type `ty`, made by `init` if this is the first
    /// request for it.
    pub(crate) fn get_or_init(&self, ty: TypeId, init: impl FnOnce() -> Value) -> &Value {
        let entry = self.entry(ty).unwrap_or_else(|| {
            let _claiming = self.claiming.lock();
            self.entry(ty).unwrap_or_else(|| {
                let index = self.entries.push(Entry {
                    ty,
                    value: OnceLock::new(),
                });
                self.entries.get(index).expect("just appended")
            })
        });
        entry.value.get_or_init(init)
    }
}
