// Lexer edge cases: every indexing-looking construct below hides inside
// a string or comment and must produce NO findings; the single real
// violation at the end proves the scan is still live after them.

pub fn raw_string_mentions_indexing() -> &'static str {
    r#"calling xs[0] here would panic!("but this is just text")"#
}

pub fn nested_raw_string() -> &'static str {
    r##"outer r#"inner parts[1]"# still one string"##
}

pub fn byte_and_c_strings() -> (&'static [u8], &'static str) {
    (b"panic!(\"bytes\")", "xs[0] inside a plain string")
}

/* a block comment with xs[0] and panic!("x")
   /* nested block comments stay comments: grid[0][1] */
   still commented out: SystemTime::now() */
pub fn after_block_comment() -> u32 {
    1
}

pub fn lifetimes_are_not_chars<'a>(x: &'a u32) -> &'a u32 {
    // 'a above must not open a char literal that swallows the file
    x
}

pub fn char_literals(c: char) -> bool {
    c == '\'' || c == '"' || c == '{'
}

pub fn raw_identifier() -> u32 {
    let r#match = 2u32;
    r#match
}

#[cfg(test)]
mod boundary {
    #[test]
    fn indexing_inside_the_test_mod() {
        let xs = [1u32];
        let _ = xs[0];
    }
}

#[rustfmt::skip]
#[expect(
    clippy::needless_return,
    reason = "an attribute spanning lines",
)]
pub fn multi_line_attribute(xs: &[u32]) -> u32 {
    // a multi-line attribute above must not confuse region tracking:
    // this fn is NOT a test region, so the indexing below is the one
    // real finding in this file
    xs[0]
}
