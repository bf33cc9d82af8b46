//! Typed out-of-core arrays over a paged memory.

use rmp_blockdev::PagingDevice;
use rmp_types::{PageId, Result, PAGE_SIZE};

use crate::paged::PagedMemory;

/// A fixed-size element that can live inside a page.
///
/// Implemented for the numeric types the paper's applications use
/// (matrices of `f64`, sort keys of `u64`, image bytes of `u8`, ...).
pub trait Element: Copy + Default {
    /// Encoded size in bytes; must divide [`PAGE_SIZE`].
    const SIZE: usize;

    /// Writes the element into `buf` (exactly `SIZE` bytes).
    fn store(self, buf: &mut [u8]);

    /// Reads an element from `buf` (exactly `SIZE` bytes).
    fn load(buf: &[u8]) -> Self;
}

macro_rules! impl_element {
    ($t:ty, $n:expr) => {
        impl Element for $t {
            const SIZE: usize = $n;

            #[inline]
            fn store(self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn load(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf.try_into().expect("element size"))
            }
        }
    };
}

impl_element!(f64, 8);
impl_element!(f32, 4);
impl_element!(u64, 8);
impl_element!(i64, 8);
impl_element!(u32, 4);
impl_element!(i32, 4);
impl_element!(u8, 1);

/// A typed array paged over a [`PagingDevice`].
///
/// Elements are packed densely into pages starting at a base [`PageId`],
/// so several arrays can share one [`PagedMemory`] at disjoint base
/// offsets — the way GAUSS keeps its matrix and FILTER its two image
/// planes in a single simulated address space.
///
/// # Examples
///
/// ```
/// use rmp_blockdev::RamDisk;
/// use rmp_vm::{PagedArray, PagedMemory, VmConfig};
///
/// let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(4));
/// let arr = PagedArray::<f64>::new(0, 10_000);
/// arr.set(&mut vm, 1234, 2.5).unwrap();
/// assert_eq!(arr.get(&mut vm, 1234).unwrap(), 2.5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PagedArray<T> {
    base_page: u64,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Element> PagedArray<T> {
    /// Elements that fit in one page.
    pub const PER_PAGE: usize = PAGE_SIZE / T::SIZE;

    /// Creates an array of `len` elements starting at page `base_page`.
    pub fn new(base_page: u64, len: usize) -> Self {
        debug_assert!(
            PAGE_SIZE.is_multiple_of(T::SIZE),
            "element size divides page"
        );
        PagedArray {
            base_page,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages this array spans.
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(Self::PER_PAGE) as u64
    }

    /// First page id past this array — a safe `base_page` for the next
    /// array sharing the same memory.
    pub fn end_page(&self) -> u64 {
        self.base_page + self.pages()
    }

    fn locate(&self, index: usize) -> (PageId, usize) {
        assert!(index < self.len, "index {index} out of bounds {}", self.len);
        let page = self.base_page + (index / Self::PER_PAGE) as u64;
        let offset = (index % Self::PER_PAGE) * T::SIZE;
        (PageId(page), offset)
    }

    /// Reads element `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn get<D: PagingDevice>(&self, vm: &mut PagedMemory<D>, index: usize) -> Result<T> {
        let (page, off) = self.locate(index);
        vm.read(page, |p| T::load(&p.as_ref()[off..off + T::SIZE]))
    }

    /// Writes element `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn set<D: PagingDevice>(
        &self,
        vm: &mut PagedMemory<D>,
        index: usize,
        value: T,
    ) -> Result<()> {
        let (page, off) = self.locate(index);
        vm.write(page, |p| value.store(&mut p.as_mut()[off..off + T::SIZE]))
    }

    /// Applies `f` to element `index` in place and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn update<D: PagingDevice>(
        &self,
        vm: &mut PagedMemory<D>,
        index: usize,
        f: impl FnOnce(T) -> T,
    ) -> Result<T> {
        let (page, off) = self.locate(index);
        vm.write(page, |p| {
            let cur = T::load(&p.as_ref()[off..off + T::SIZE]);
            let new = f(cur);
            new.store(&mut p.as_mut()[off..off + T::SIZE]);
            new
        })
    }

    /// Swaps elements `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn swap<D: PagingDevice>(&self, vm: &mut PagedMemory<D>, a: usize, b: usize) -> Result<()> {
        if a == b {
            return Ok(());
        }
        let va = self.get(vm, a)?;
        let vb = self.get(vm, b)?;
        self.set(vm, a, vb)?;
        self.set(vm, b, va)
    }

    /// Fills the array from an iterator (stopping at `len`).
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn fill_from<D: PagingDevice, I: IntoIterator<Item = T>>(
        &self,
        vm: &mut PagedMemory<D>,
        values: I,
    ) -> Result<()> {
        for (i, v) in values.into_iter().take(self.len).enumerate() {
            self.set(vm, i, v)?;
        }
        Ok(())
    }

    /// Collects the whole array into a `Vec` (tests and verification).
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn to_vec<D: PagingDevice>(&self, vm: &mut PagedMemory<D>) -> Result<Vec<T>> {
        (0..self.len).map(|i| self.get(vm, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::VmConfig;
    use rmp_blockdev::RamDisk;

    fn vm(frames: usize) -> PagedMemory<RamDisk> {
        PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(frames))
    }

    #[test]
    fn elements_per_page() {
        assert_eq!(PagedArray::<f64>::PER_PAGE, 1024);
        assert_eq!(PagedArray::<u8>::PER_PAGE, 8192);
        assert_eq!(PagedArray::<u32>::PER_PAGE, 2048);
    }

    #[test]
    fn set_get_across_pages() {
        let mut m = vm(2);
        let arr = PagedArray::<f64>::new(0, 5000);
        assert_eq!(arr.pages(), 5);
        for i in (0..5000).step_by(37) {
            arr.set(&mut m, i, i as f64 * 0.5).expect("set");
        }
        for i in (0..5000).step_by(37) {
            assert_eq!(arr.get(&mut m, i).expect("get"), i as f64 * 0.5);
        }
    }

    #[test]
    fn arrays_at_disjoint_bases_do_not_alias() {
        let mut m = vm(4);
        let a = PagedArray::<u64>::new(0, 2048);
        let b = PagedArray::<u64>::new(a.end_page(), 2048);
        a.set(&mut m, 0, 111).expect("set");
        b.set(&mut m, 0, 222).expect("set");
        assert_eq!(a.get(&mut m, 0).expect("get"), 111);
        assert_eq!(b.get(&mut m, 0).expect("get"), 222);
    }

    #[test]
    fn update_and_swap() {
        let mut m = vm(2);
        let arr = PagedArray::<u64>::new(0, 100);
        arr.set(&mut m, 3, 10).expect("set");
        let new = arr.update(&mut m, 3, |v| v * 7).expect("update");
        assert_eq!(new, 70);
        arr.set(&mut m, 90, 5).expect("set");
        arr.swap(&mut m, 3, 90).expect("swap");
        assert_eq!(arr.get(&mut m, 3).expect("get"), 5);
        assert_eq!(arr.get(&mut m, 90).expect("get"), 70);
        arr.swap(&mut m, 3, 3).expect("self swap is a no-op");
        assert_eq!(arr.get(&mut m, 3).expect("get"), 5);
    }

    #[test]
    fn fill_and_collect_round_trip() {
        let mut m = vm(3);
        let arr = PagedArray::<u32>::new(0, 3000);
        arr.fill_from(&mut m, (0..3000).map(|i| i * 2))
            .expect("fill");
        let v = arr.to_vec(&mut m).expect("collect");
        assert_eq!(v.len(), 3000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i as u32) * 2));
    }

    #[test]
    fn untouched_elements_default_to_zero() {
        let mut m = vm(1);
        let arr = PagedArray::<f64>::new(0, 10);
        assert_eq!(arr.get(&mut m, 9).expect("get"), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut m = vm(1);
        let arr = PagedArray::<f64>::new(0, 10);
        let _ = arr.get(&mut m, 10);
    }
}
