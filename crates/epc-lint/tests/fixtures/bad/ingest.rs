// Fixture: D4 — panic surface, plus bracket forms that must NOT flag.
pub fn parse(parts: &[&str], i: usize) -> u32 {
    let first = parts.first().unwrap();
    let second = parts.get(1).expect("second field");
    if first.is_empty() {
        panic!("empty field");
    }
    let byte = first.as_bytes()[0];
    let all = &parts[..];
    let arr = [1u32, 2];
    let v = vec![first.len(), second.len()];
    match all {
        [one] => one.len() as u32,
        _ => (byte as u32) + arr[i] + (v[0] as u32),
    }
}
pub fn pick<'a>(xs: &'a [Option<f64>], i: usize) -> Option<f64> {
    xs[i]
}
