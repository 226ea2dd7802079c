// Fixture: a library that reads the machine's parallelism and leaves
// starting threads to epc-runtime; its tests may start threads.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_start_threads() {
        let n = std::thread::scope(|s| s.spawn(super::hardware_threads).join());
        assert!(n.is_ok());
    }
}
