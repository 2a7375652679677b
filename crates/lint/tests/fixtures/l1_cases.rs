// L1 fixture: indexing by literal in library code, plus the guards that
// must NOT fire. (The rest of the panic-free contract is clippy's; see
// crates/lint/clippy_fixture.)

pub fn bad_index(xs: &[u32]) -> u32 {
    xs[0]
}

pub fn bad_index_after_call(parts: &str) -> &str {
    parts.split(' ').collect::<Vec<_>>()[1]
}

pub fn bad_nested_index(grid: &[[u32; 2]]) -> u32 {
    grid[0][1]
}

// guard: .get() is the sanctioned spelling
pub fn good_get(xs: &[u32]) -> Option<&u32> {
    xs.get(0)
}

// guard: a tuple-struct pattern `Some(0)` is not indexing
pub fn good_pattern(v: Option<u32>) -> bool {
    matches!(v, Some(0))
}

// guard: array type and array literal are not indexing
pub struct Buf {
    pub words: [u64; 4],
}

pub fn good_literal() -> [u32; 1] {
    let xs = [0];
    xs
}

#[cfg(test)]
mod tests {
    // guard: test regions may index freely
    #[test]
    fn in_tests_indexing_is_fine() {
        let xs = [1u32];
        assert_eq!(xs[0], 1);
    }
}
