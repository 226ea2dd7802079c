// Fixture: D11 — threads started outside epc-runtime, plus thread items
// and spellings that must NOT flag.
use std::thread::scope;
pub fn fan_out() {
    std::thread::spawn(|| ());
    let _b = std::thread::Builder::new();
    let _n = std::thread::available_parallelism();
    let _me = std::thread::current();
}
// thread::spawn in a comment, "thread::scope" in a string.
pub fn names() -> &'static str {
    "thread::scope"
}
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_start_threads() {
        std::thread::scope(|s| {
            s.spawn(|| ());
        });
    }
}
