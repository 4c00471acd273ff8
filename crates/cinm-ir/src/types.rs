//! The type system of the CINM IR.
//!
//! Mirrors the subset of the MLIR type system the Cinnamon dialects need:
//! scalar (integer / floating point / index) types, ranked tensors and
//! memrefs, plus the custom types introduced by the `cnm` and `cim`
//! abstractions of the paper (`!cnm.buffer`, `!cnm.workgroup`, `cim_id` and
//! asynchronous tokens).

use std::fmt;

/// Built-in scalar element types.
///
/// # Examples
///
/// ```
/// use cinm_ir::types::ScalarType;
/// assert_eq!(ScalarType::I32.byte_width(), 4);
/// assert_eq!(ScalarType::I32.to_string(), "i32");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// 1-bit boolean.
    I1,
    /// 8-bit signless integer.
    I8,
    /// 16-bit signless integer.
    I16,
    /// 32-bit signless integer (the data type of every paper workload).
    I32,
    /// 64-bit signless integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// Platform index type (loop induction variables, subscripts).
    Index,
}

impl ScalarType {
    /// Width of the type in bytes (index counts as 8).
    pub fn byte_width(self) -> usize {
        match self {
            ScalarType::I1 | ScalarType::I8 => 1,
            ScalarType::I16 => 2,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 | ScalarType::Index => 8,
        }
    }

    /// Width of the type in bits.
    pub fn bit_width(self) -> usize {
        match self {
            ScalarType::I1 => 1,
            _ => self.byte_width() * 8,
        }
    }

    /// Whether this is an integer (or index) type.
    pub fn is_integer(self) -> bool {
        !matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// Whether this is a floating point type.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::I1 => "i1",
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
            ScalarType::Index => "index",
        };
        f.write_str(s)
    }
}

/// The most dimensions a [`Shape`] holds. The deepest rank any workload
/// builds, at any scale, is 6 (the `im2col` patches of a convolution).
pub const MAX_RANK: usize = 8;

/// The dimensions of a shaped type, inline: at most [`MAX_RANK`] of them in a
/// fixed array, so a type is `Copy` and owns no heap. Derefs to the `[i64]` of
/// its dimensions (dimensions past the rank are kept zero, so the derived
/// equality and hash compare the dimensions alone). Also the payload of
/// [`Attribute::IntArray`](crate::Attribute::IntArray): tile sizes,
/// permutations, workgroup extents.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [i64; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// A shape with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_RANK`] dimensions.
    pub fn new(dims: &[i64]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds the limit of {MAX_RANK} dimensions: {dims:?}",
            dims.len()
        );
        let mut shape = Shape {
            dims: [0; MAX_RANK],
            rank: dims.len() as u8,
        };
        shape.dims[..dims.len()].copy_from_slice(dims);
        shape
    }
}

impl std::ops::Deref for Shape {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        &self.dims[..self.rank as usize]
    }
}

impl std::ops::DerefMut for Shape {
    fn deref_mut(&mut self) -> &mut [i64] {
        &mut self.dims[..self.rank as usize]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A ranked tensor type `tensor<d0 x d1 x ... x elem>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorType {
    /// Dimension sizes. All dimensions are static in this reproduction.
    pub shape: Shape,
    /// Element type.
    pub elem: ScalarType,
}

impl TensorType {
    /// Creates a ranked tensor type.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is negative or there are more than
    /// [`MAX_RANK`] of them.
    pub fn new(shape: &[i64], elem: ScalarType) -> Self {
        assert!(
            shape.iter().all(|&d| d >= 0),
            "tensor dimensions must be non-negative, got {shape:?}"
        );
        TensorType {
            shape: Shape::new(shape),
            elem,
        }
    }

    /// Rank of the tensor (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Total number of bytes a dense buffer of this type occupies.
    pub fn byte_size(&self) -> i64 {
        self.num_elements() * self.elem.byte_width() as i64
    }
}

impl fmt::Display for TensorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor<")?;
        for d in self.shape.iter() {
            write!(f, "{d}x")?;
        }
        write!(f, "{}>", self.elem)
    }
}

/// A memref (buffer view) type `memref<d0 x d1 x ... x elem>`.
///
/// In the device dialects memrefs model device-local memory (e.g. a WRAM
/// slice inside a `cnm.launch` body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRefType {
    /// Dimension sizes.
    pub shape: Shape,
    /// Element type.
    pub elem: ScalarType,
    /// Memory space this memref lives in (host, MRAM, WRAM, crossbar, ...).
    pub space: MemorySpace,
}

impl MemRefType {
    /// Creates a memref type in the default (host) memory space.
    pub fn new(shape: &[i64], elem: ScalarType) -> Self {
        Self::with_space(shape, elem, MemorySpace::Host)
    }

    /// Creates a memref type in an explicit memory space.
    pub fn with_space(shape: &[i64], elem: ScalarType, space: MemorySpace) -> Self {
        assert!(
            shape.iter().all(|&d| d >= 0),
            "memref dimensions must be non-negative, got {shape:?}"
        );
        MemRefType {
            shape: Shape::new(shape),
            elem,
            space,
        }
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Total number of bytes.
    pub fn byte_size(&self) -> i64 {
        self.num_elements() * self.elem.byte_width() as i64
    }
}

impl fmt::Display for MemRefType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memref<")?;
        for d in self.shape.iter() {
            write!(f, "{d}x")?;
        }
        write!(f, "{}", self.elem)?;
        if self.space != MemorySpace::Host {
            write!(f, ", {}", self.space)?;
        }
        write!(f, ">")
    }
}

/// Memory spaces of the heterogeneous CINM system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemorySpace {
    /// Host DRAM.
    Host,
    /// UPMEM DPU main RAM (64 MB per DPU).
    Mram,
    /// UPMEM DPU working RAM scratchpad (64 kB per DPU).
    Wram,
    /// Memristive crossbar array cells.
    Crossbar,
    /// Generic device-global space of a `cnm` workgroup tree root.
    DeviceGlobal,
    /// Per-PU private space (leaf of the `cnm` workgroup tree).
    PuPrivate,
}

impl fmt::Display for MemorySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemorySpace::Host => "host",
            MemorySpace::Mram => "mram",
            MemorySpace::Wram => "wram",
            MemorySpace::Crossbar => "crossbar",
            MemorySpace::DeviceGlobal => "global",
            MemorySpace::PuPrivate => "private",
        };
        f.write_str(s)
    }
}

/// The `!cnm.buffer` type: an opaque, level-tagged buffer living in the
/// workgroup memory tree (paper Section 3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnmBufferType {
    /// Shape of the per-PU slice.
    pub shape: Shape,
    /// Element type.
    pub elem: ScalarType,
    /// Level in the workgroup memory tree (0 = PU-private leaf).
    pub level: u32,
}

impl fmt::Display for CnmBufferType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "!cnm.buffer<")?;
        for d in self.shape.iter() {
            write!(f, "{d}x")?;
        }
        write!(f, "{}, level {}>", self.elem, self.level)
    }
}

/// The `!cnm.workgroup` type: a logical grid of processing units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnmWorkgroupType {
    /// Extent of every workgroup dimension, e.g. `[8, 2]` for 8 DPUs with 2
    /// tasklets each.
    pub shape: Shape,
}

impl CnmWorkgroupType {
    /// Total number of processing units in the workgroup.
    pub fn num_pus(&self) -> i64 {
        self.shape.iter().product()
    }
}

impl fmt::Display for CnmWorkgroupType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "!cnm.workgroup<")?;
        let mut first = true;
        for d in self.shape.iter() {
            if !first {
                write!(f, "x")?;
            }
            first = false;
            write!(f, "{d}")?;
        }
        write!(f, ">")
    }
}

/// A type in the CINM IR: `Copy`, and never owns heap memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar value.
    Scalar(ScalarType),
    /// A ranked dense tensor (value semantics).
    Tensor(TensorType),
    /// A buffer view (reference semantics).
    MemRef(MemRefType),
    /// `!cnm.buffer<...>` — opaque workgroup-tree buffer.
    CnmBuffer(CnmBufferType),
    /// `!cnm.workgroup<...>` — logical PU grid.
    CnmWorkgroup(CnmWorkgroupType),
    /// `!cim.device` — handle returned by `cim.acquire`.
    CimDeviceId,
    /// `!cim.future` / `!cnm.token` — asynchronous completion token.
    Token,
    /// Absence of a value (only used in attribute positions).
    None,
}

impl Type {
    /// Convenience constructor for `i32`.
    pub fn i32() -> Self {
        Type::Scalar(ScalarType::I32)
    }

    /// Convenience constructor for `index`.
    pub fn index() -> Self {
        Type::Scalar(ScalarType::Index)
    }

    /// Convenience constructor for a ranked tensor type.
    pub fn tensor(shape: &[i64], elem: ScalarType) -> Self {
        Type::Tensor(TensorType::new(shape, elem))
    }

    /// Convenience constructor for a host memref type.
    pub fn memref(shape: &[i64], elem: ScalarType) -> Self {
        Type::MemRef(MemRefType::new(shape, elem))
    }

    /// Convenience constructor for a memref in a given memory space.
    pub fn memref_in(shape: &[i64], elem: ScalarType, space: MemorySpace) -> Self {
        Type::MemRef(MemRefType::with_space(shape, elem, space))
    }

    /// Convenience constructor for a `!cnm.buffer`.
    pub fn cnm_buffer(shape: &[i64], elem: ScalarType, level: u32) -> Self {
        Type::CnmBuffer(CnmBufferType {
            shape: Shape::new(shape),
            elem,
            level,
        })
    }

    /// Convenience constructor for a `!cnm.workgroup`.
    pub fn cnm_workgroup(shape: &[i64]) -> Self {
        Type::CnmWorkgroup(CnmWorkgroupType {
            shape: Shape::new(shape),
        })
    }

    /// Returns the shape if this is a shaped type (tensor, memref, buffer).
    pub fn shape(&self) -> Option<&[i64]> {
        match self {
            Type::Tensor(t) => Some(&t.shape[..]),
            Type::MemRef(m) => Some(&m.shape[..]),
            Type::CnmBuffer(b) => Some(&b.shape[..]),
            _ => None,
        }
    }

    /// Returns the element type if this is a shaped or scalar type.
    pub fn element_type(&self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) => Some(*s),
            Type::Tensor(t) => Some(t.elem),
            Type::MemRef(m) => Some(m.elem),
            Type::CnmBuffer(b) => Some(b.elem),
            _ => None,
        }
    }

    /// Returns true if this is a shaped type.
    pub fn is_shaped(&self) -> bool {
        self.shape().is_some()
    }

    /// Number of elements for shaped types, 1 for scalars, 0 otherwise.
    pub fn num_elements(&self) -> i64 {
        match self {
            Type::Scalar(_) => 1,
            Type::Tensor(t) => t.num_elements(),
            Type::MemRef(m) => m.num_elements(),
            Type::CnmBuffer(b) => b.shape.iter().product(),
            _ => 0,
        }
    }

    /// Byte footprint of a dense value of this type (0 for non-data types).
    pub fn byte_size(&self) -> i64 {
        match self.element_type() {
            Some(e) => self.num_elements() * e.byte_width() as i64,
            None => 0,
        }
    }
}

impl From<ScalarType> for Type {
    fn from(value: ScalarType) -> Self {
        Type::Scalar(value)
    }
}

impl From<TensorType> for Type {
    fn from(value: TensorType) -> Self {
        Type::Tensor(value)
    }
}

impl From<MemRefType> for Type {
    fn from(value: MemRefType) -> Self {
        Type::MemRef(value)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Tensor(t) => write!(f, "{t}"),
            Type::MemRef(m) => write!(f, "{m}"),
            Type::CnmBuffer(b) => write!(f, "{b}"),
            Type::CnmWorkgroup(w) => write!(f, "{w}"),
            Type::CimDeviceId => write!(f, "!cim.device"),
            Type::Token => write!(f, "!cnm.token"),
            Type::None => write!(f, "none"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_widths() {
        assert_eq!(ScalarType::I1.byte_width(), 1);
        assert_eq!(ScalarType::I16.byte_width(), 2);
        assert_eq!(ScalarType::I32.byte_width(), 4);
        assert_eq!(ScalarType::F64.byte_width(), 8);
        assert_eq!(ScalarType::I32.bit_width(), 32);
        assert_eq!(ScalarType::I1.bit_width(), 1);
        assert!(ScalarType::I32.is_integer());
        assert!(ScalarType::F32.is_float());
        assert!(!ScalarType::F32.is_integer());
    }

    #[test]
    fn tensor_type_properties() {
        let t = TensorType::new(&[64, 64], ScalarType::I32);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.num_elements(), 4096);
        assert_eq!(t.byte_size(), 16384);
        assert_eq!(t.to_string(), "tensor<64x64xi32>");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn tensor_type_rejects_negative_dims() {
        TensorType::new(&[-1, 4], ScalarType::I32);
    }

    #[test]
    #[should_panic(expected = "rank 9 exceeds the limit of 8 dimensions")]
    fn tensor_type_rejects_a_rank_past_the_limit() {
        TensorType::new(&[1; MAX_RANK + 1], ScalarType::I32);
    }

    #[test]
    fn memref_display_includes_space() {
        let m = MemRefType::with_space(&[16, 16], ScalarType::I16, MemorySpace::Wram);
        assert_eq!(m.to_string(), "memref<16x16xi16, wram>");
        let host = MemRefType::new(&[8], ScalarType::F32);
        assert_eq!(host.to_string(), "memref<8xf32>");
    }

    #[test]
    fn cnm_types_display() {
        let b = Type::cnm_buffer(&[16, 16], ScalarType::I16, 0);
        assert_eq!(b.to_string(), "!cnm.buffer<16x16xi16, level 0>");
        let wg = Type::cnm_workgroup(&[8, 2]);
        assert_eq!(wg.to_string(), "!cnm.workgroup<8x2>");
        if let Type::CnmWorkgroup(w) = &wg {
            assert_eq!(w.num_pus(), 16);
        } else {
            panic!("expected workgroup type");
        }
    }

    #[test]
    fn type_accessors() {
        let t = Type::tensor(&[4, 8], ScalarType::I32);
        assert_eq!(t.shape(), Some(&[4_i64, 8][..]));
        assert_eq!(t.element_type(), Some(ScalarType::I32));
        assert_eq!(t.num_elements(), 32);
        assert_eq!(t.byte_size(), 128);
        assert!(t.is_shaped());
        assert!(!Type::CimDeviceId.is_shaped());
        assert_eq!(Type::i32().num_elements(), 1);
        assert_eq!(Type::CimDeviceId.byte_size(), 0);
    }

    #[test]
    fn conversion_traits() {
        let t: Type = ScalarType::I32.into();
        assert_eq!(t, Type::i32());
        let t: Type = TensorType::new(&[2], ScalarType::F32).into();
        assert!(matches!(t, Type::Tensor(_)));
    }
}
