//! L9 fixture: spill/restore I/O under registry-wide lock guards. Lines
//! are load-bearing.

fn io_under_a_map_guard(&self) {
    let mut map = self.map.lock();
    map.insert(id, entry);
    write_container(&self.spill_dir, id, &json);
}

fn io_under_a_ring_guard(&self) {
    let ring = self.ring.lock();
    let victim = ring.front();
    self.spill_slot(&victim, &mut slot);
}

fn io_after_the_guard_drops(&self) {
    let mut ring = self.ring.lock();
    let cand = ring.pop_front();
    drop(ring);
    write_container(&self.spill_dir, &cand.id, &json);
}

fn io_outside_a_scoped_temporary(&self) {
    let cand = { self.ring.lock().pop_front() };
    read_container(&self.spill_dir, &cand.id);
}

fn io_under_a_slot_guard_is_fine(&self, entry: &TenantEntry) {
    let mut slot = entry.slot.lock();
    write_container(&self.spill_dir, &entry.id, &json);
}

fn guard_dies_with_its_block(&self) {
    {
        let map = self.map.lock();
        let n = map.len();
    }
    ensure_resident(&entry, &mut slot);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_lock_and_panic_freely() {
        let map = self.map.lock();
        write_container(&dir, "x", "y").unwrap();
    }
}
