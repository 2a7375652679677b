// Allow-comment fixture: trailing and standalone allows, empty
// justifications, unknown rules, and rules that moved to clippy.

pub fn trailing_allow(xs: &[u32]) -> u32 {
    xs[0] // lint:allow(L1) the caller checked the length on the line above
}

pub fn standalone_allow(xs: &[u32]) -> u32 {
    // lint:allow(L1) construction validated this invariant; see try_new
    xs[0]
}

pub fn multiline_standalone_allow(xs: &[u32]) -> u32 {
    // lint:allow(L1) the comment explaining the invariant keeps going on
    // a second line, and the allow must still bind to the code below
    xs[0]
}

pub fn empty_justification(xs: &[u32]) -> u32 {
    // lint:allow(L1)
    xs[0]
}

pub fn unknown_rule(xs: &[u32]) -> u32 {
    // lint:allow(L99) no such rule
    xs[0]
}

pub fn wrong_rule(xs: &[u32]) -> u32 {
    // lint:allow(L4) justified but aimed at the wrong rule
    xs[0]
}

pub fn moved_rule(v: Option<u32>) -> u32 {
    // lint:allow(L8) clippy enforces this one now
    v.unwrap()
}
