// Fixture: D10 — the `unsafe` keyword, plus spellings that must NOT flag.
pub fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
pub unsafe fn raw() {}
// unsafe in a comment, "unsafe" in a string, and unsafe_code as a name.
pub fn names() -> &'static str {
    let unsafe_code = "unsafe";
    unsafe_code
}
