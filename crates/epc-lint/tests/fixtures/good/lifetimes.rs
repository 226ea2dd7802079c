// Fixture: a lifetime before a slice type is not an index expression.
pub enum Cells<'a> {
    Num(&'a [Option<f64>]),
    Cat(&'a [Option<u32>], &'static [&'static str]),
}

pub struct View<'a> {
    pub cells: &'a [Option<f64>],
}

pub fn first<'a>(view: &View<'a>, rest: &'a [u8]) -> Option<(f64, &'a [u8])> {
    'scan: for cell in view.cells {
        if let Some(x) = cell {
            return Some((*x, rest));
        }
        continue 'scan;
    }
    None
}
