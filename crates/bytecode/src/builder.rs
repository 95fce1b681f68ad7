//! Label-based assembler for building programs.
//!
//! [`ProgramBuilder`] owns function and class declarations; each declared
//! function exposes a chainable [`FunctionBuilder`] for emitting code with
//! forward-reference [`Label`]s. [`ProgramBuilder::build`] resolves labels,
//! constructs the block tables and runs the [`crate::verifier`], so any
//! [`crate::Program`] in existence is verified.
//!
//! ```
//! use jvm_bytecode::{ProgramBuilder, CmpOp, Intrinsic};
//!
//! # fn main() -> Result<(), jvm_bytecode::BuildError> {
//! let mut pb = ProgramBuilder::new();
//! let main = pb.declare_function("main", 0, false);
//! let b = pb.function_mut(main);
//! b.iconst(41).iconst(1).iadd().intrinsic(Intrinsic::Checksum);
//! b.ret_void();
//! let program = pb.build(main)?;
//! assert_eq!(program.function(main).name(), "main");
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::class::Class;
use crate::error::BuildError;
use crate::function::Function;
use crate::ids::{ClassId, FuncId, Label, ID_LIMIT};
use crate::instr::{CmpOp, Instr, Intrinsic};
use crate::program::Program;
use crate::verifier;

/// Builder for one function's code. Obtained from
/// [`ProgramBuilder::function_mut`].
///
/// All emit methods return `&mut Self` for chaining. Branch targets are
/// [`Label`]s; they may be used before being bound, and every used label
/// must be bound exactly once before [`ProgramBuilder::build`].
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    num_params: u16,
    num_locals: u16,
    returns_value: bool,
    code: Vec<Instr>,
    /// Bound position of each label, if any.
    labels: Vec<Option<u32>>,
}

impl FunctionBuilder {
    fn new(name: String, num_params: u16, returns_value: bool) -> Self {
        FunctionBuilder {
            name,
            num_params,
            num_locals: num_params,
            returns_value,
            code: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current number of emitted instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` if no instructions have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Allocates a fresh local slot and returns its index.
    pub fn alloc_local(&mut self) -> u16 {
        let slot = self.num_locals;
        self.num_locals = self
            .num_locals
            .checked_add(1)
            .expect("too many locals in one function");
        slot
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Binds `label` to the position of the *next* emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label belongs to another builder (index out of range).
    /// Rebinding is reported at build time as [`BuildError::RebindLabel`].
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.labels[label.0 as usize];
        if slot.is_some() {
            // Mark as double-bound with a sentinel detected at finish time:
            // we record u32::MAX which is never a valid position.
            *slot = Some(u32::MAX);
        } else {
            *slot = Some(self.code.len() as u32);
        }
        self
    }

    /// Creates a fresh label and binds it here; convenient for loop heads.
    pub fn bind_new_label(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    fn emit(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    // --- constants & stack ------------------------------------------------

    /// Push an integer constant.
    pub fn iconst(&mut self, v: i64) -> &mut Self {
        self.emit(Instr::IConst(v))
    }
    /// Push a float constant.
    pub fn fconst(&mut self, v: f64) -> &mut Self {
        self.emit(Instr::FConst(v))
    }
    /// Push the null reference.
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Instr::ConstNull)
    }
    /// Duplicate the top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Instr::Dup)
    }
    /// Duplicate the top two stack slots.
    pub fn dup2(&mut self) -> &mut Self {
        self.emit(Instr::Dup2)
    }
    /// Discard the top of stack.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Instr::Pop)
    }
    /// Swap the top two stack slots.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Instr::Swap)
    }

    // --- locals -----------------------------------------------------------

    /// Push local `slot`.
    pub fn load(&mut self, slot: u16) -> &mut Self {
        self.emit(Instr::Load(slot))
    }
    /// Pop into local `slot`.
    pub fn store(&mut self, slot: u16) -> &mut Self {
        self.emit(Instr::Store(slot))
    }
    /// Add `delta` to integer local `slot`.
    pub fn iinc(&mut self, slot: u16, delta: i32) -> &mut Self {
        self.emit(Instr::IInc(slot, delta))
    }

    // --- integer arithmetic -----------------------------------------------

    /// Integer add.
    pub fn iadd(&mut self) -> &mut Self {
        self.emit(Instr::IAdd)
    }
    /// Integer subtract.
    pub fn isub(&mut self) -> &mut Self {
        self.emit(Instr::ISub)
    }
    /// Integer multiply.
    pub fn imul(&mut self) -> &mut Self {
        self.emit(Instr::IMul)
    }
    /// Integer divide.
    pub fn idiv(&mut self) -> &mut Self {
        self.emit(Instr::IDiv)
    }
    /// Integer remainder.
    pub fn irem(&mut self) -> &mut Self {
        self.emit(Instr::IRem)
    }
    /// Integer negate.
    pub fn ineg(&mut self) -> &mut Self {
        self.emit(Instr::INeg)
    }
    /// Shift left.
    pub fn ishl(&mut self) -> &mut Self {
        self.emit(Instr::IShl)
    }
    /// Arithmetic shift right.
    pub fn ishr(&mut self) -> &mut Self {
        self.emit(Instr::IShr)
    }
    /// Logical shift right.
    pub fn iushr(&mut self) -> &mut Self {
        self.emit(Instr::IUShr)
    }
    /// Bitwise and.
    pub fn iand(&mut self) -> &mut Self {
        self.emit(Instr::IAnd)
    }
    /// Bitwise or.
    pub fn ior(&mut self) -> &mut Self {
        self.emit(Instr::IOr)
    }
    /// Bitwise xor.
    pub fn ixor(&mut self) -> &mut Self {
        self.emit(Instr::IXor)
    }

    // --- float arithmetic & conversions -------------------------------------

    /// Float add.
    pub fn fadd(&mut self) -> &mut Self {
        self.emit(Instr::FAdd)
    }
    /// Float subtract.
    pub fn fsub(&mut self) -> &mut Self {
        self.emit(Instr::FSub)
    }
    /// Float multiply.
    pub fn fmul(&mut self) -> &mut Self {
        self.emit(Instr::FMul)
    }
    /// Float divide.
    pub fn fdiv(&mut self) -> &mut Self {
        self.emit(Instr::FDiv)
    }
    /// Float negate.
    pub fn fneg(&mut self) -> &mut Self {
        self.emit(Instr::FNeg)
    }
    /// Int → float conversion.
    pub fn i2f(&mut self) -> &mut Self {
        self.emit(Instr::I2F)
    }
    /// Float → int conversion.
    pub fn f2i(&mut self) -> &mut Self {
        self.emit(Instr::F2I)
    }

    // --- control flow -------------------------------------------------------

    /// Pop two ints, branch to `target` if `op` holds.
    pub fn if_icmp(&mut self, op: CmpOp, target: Label) -> &mut Self {
        self.emit(Instr::IfICmp(op, target.0))
    }
    /// Pop one int, branch to `target` if `op` holds against zero.
    pub fn if_i(&mut self, op: CmpOp, target: Label) -> &mut Self {
        self.emit(Instr::IfI(op, target.0))
    }
    /// Pop two floats, branch to `target` if `op` holds.
    pub fn if_fcmp(&mut self, op: CmpOp, target: Label) -> &mut Self {
        self.emit(Instr::IfFCmp(op, target.0))
    }
    /// Pop a reference, branch if null.
    pub fn if_null(&mut self, target: Label) -> &mut Self {
        self.emit(Instr::IfNull(target.0))
    }
    /// Pop a reference, branch if non-null.
    pub fn if_nonnull(&mut self, target: Label) -> &mut Self {
        self.emit(Instr::IfNonNull(target.0))
    }
    /// Unconditional branch.
    pub fn goto(&mut self, target: Label) -> &mut Self {
        self.emit(Instr::Goto(target.0))
    }
    /// Multi-way branch on the popped int.
    pub fn table_switch(&mut self, low: i64, targets: &[Label], default: Label) -> &mut Self {
        self.emit(Instr::TableSwitch {
            low,
            targets: targets.iter().map(|l| l.0).collect(),
            default: default.0,
        })
    }

    // --- calls & returns ------------------------------------------------------

    /// Direct call.
    pub fn invoke_static(&mut self, f: FuncId) -> &mut Self {
        self.emit(Instr::InvokeStatic(f))
    }
    /// Virtual call through vtable `slot`, passing `argc` arguments
    /// including the receiver.
    pub fn invoke_virtual(&mut self, slot: u16, argc: u16) -> &mut Self {
        self.emit(Instr::InvokeVirtual { slot, argc })
    }
    /// Return the top of stack.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Instr::Return)
    }
    /// Return with no value.
    pub fn ret_void(&mut self) -> &mut Self {
        self.emit(Instr::ReturnVoid)
    }

    // --- objects & arrays -------------------------------------------------------

    /// Allocate an object.
    pub fn new_obj(&mut self, class: ClassId) -> &mut Self {
        self.emit(Instr::New(class))
    }
    /// Load field `n` from the popped object.
    pub fn get_field(&mut self, n: u16) -> &mut Self {
        self.emit(Instr::GetField(n))
    }
    /// Store the popped value into field `n` of the next popped object.
    pub fn put_field(&mut self, n: u16) -> &mut Self {
        self.emit(Instr::PutField(n))
    }
    /// Allocate an array of the popped length.
    pub fn new_array(&mut self) -> &mut Self {
        self.emit(Instr::NewArray)
    }
    /// Array element load.
    pub fn aload(&mut self) -> &mut Self {
        self.emit(Instr::ALoad)
    }
    /// Array element store.
    pub fn astore(&mut self) -> &mut Self {
        self.emit(Instr::AStore)
    }
    /// Array length.
    pub fn array_len(&mut self) -> &mut Self {
        self.emit(Instr::ArrayLen)
    }

    // --- misc ----------------------------------------------------------------

    /// Native intrinsic call.
    pub fn intrinsic(&mut self, i: Intrinsic) -> &mut Self {
        self.emit(Instr::Intrinsic(i))
    }
    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    /// Resolves labels and produces the finished [`Function`].
    fn finish(mut self, id: FuncId) -> Result<Function, BuildError> {
        if self.code.is_empty() {
            return Err(BuildError::MissingBody { func: self.name });
        }
        // Validate bindings.
        let mut resolved: Vec<u32> = Vec::with_capacity(self.labels.len());
        for (i, l) in self.labels.iter().enumerate() {
            match l {
                None => {
                    // Unbound labels are only an error if referenced; we
                    // check references below, so record a sentinel.
                    resolved.push(u32::MAX);
                }
                Some(u32::MAX) => {
                    return Err(BuildError::RebindLabel {
                        func: self.name,
                        label: i as u32,
                    })
                }
                Some(pos) => {
                    if *pos as usize >= self.code.len() {
                        // Bound past the last instruction: can only be the
                        // target of a branch to "end", which has no landing
                        // instruction. Report as unbound.
                        return Err(BuildError::UnboundLabel {
                            func: self.name,
                            label: i as u32,
                        });
                    }
                    resolved.push(*pos);
                }
            }
        }
        let resolve = |raw: u32, func: &str| -> Result<u32, BuildError> {
            match resolved.get(raw as usize) {
                Some(&pos) if pos != u32::MAX => Ok(pos),
                _ => Err(BuildError::UnboundLabel {
                    func: func.to_owned(),
                    label: raw,
                }),
            }
        };
        for ins in &mut self.code {
            match ins {
                Instr::IfICmp(_, t)
                | Instr::IfI(_, t)
                | Instr::IfFCmp(_, t)
                | Instr::IfNull(t)
                | Instr::IfNonNull(t)
                | Instr::Goto(t) => *t = resolve(*t, &self.name)?,
                Instr::TableSwitch {
                    targets, default, ..
                } => {
                    for t in targets.iter_mut() {
                        *t = resolve(*t, &self.name)?;
                    }
                    *default = resolve(*default, &self.name)?;
                }
                _ => {}
            }
        }
        Ok(Function::from_parts(
            self.name,
            id,
            self.num_params,
            self.num_locals,
            self.returns_value,
            self.code,
        ))
    }
}

#[derive(Debug)]
struct ClassDecl {
    name: String,
    super_class: Option<ClassId>,
    num_fields: u16,
    vtable: Vec<FuncId>,
}

/// Builder for a whole [`Program`].
///
/// Functions and classes are declared up front (so they can reference each
/// other), then function bodies are emitted through [`FunctionBuilder`]s,
/// and finally [`ProgramBuilder::build`] resolves, verifies and freezes the
/// program.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<FunctionBuilder>,
    classes: Vec<ClassDecl>,
    func_names: HashMap<String, FuncId>,
    class_names: HashMap<String, ClassId>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a function and returns its id. The body is emitted through
    /// [`Self::function_mut`].
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn declare_function(&mut self, name: &str, num_params: u16, returns_value: bool) -> FuncId {
        assert!(
            !self.func_names.contains_key(name),
            "function `{name}` declared twice"
        );
        let id = FuncId(self.functions.len() as u32);
        self.func_names.insert(name.to_owned(), id);
        self.functions.push(FunctionBuilder::new(
            name.to_owned(),
            num_params,
            returns_value,
        ));
        id
    }

    /// The builder for a declared function's body.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut FunctionBuilder {
        &mut self.functions[id.index()]
    }

    /// Looks up a declared function by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.func_names.get(name).copied()
    }

    /// Declares a class with `own_fields` fields of its own (inherited
    /// fields are added automatically) and an inherited copy of the
    /// superclass vtable. The superclass, if any, must have been declared
    /// earlier.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared or the superclass id is out
    /// of range.
    pub fn declare_class(
        &mut self,
        name: &str,
        super_class: Option<ClassId>,
        own_fields: u16,
    ) -> ClassId {
        assert!(
            !self.class_names.contains_key(name),
            "class `{name}` declared twice"
        );
        let (inherited_fields, vtable) = match super_class {
            Some(s) => {
                let sup = &self.classes[s.index()];
                (sup.num_fields, sup.vtable.clone())
            }
            None => (0, Vec::new()),
        };
        let id = ClassId(self.classes.len() as u32);
        self.class_names.insert(name.to_owned(), id);
        self.classes.push(ClassDecl {
            name: name.to_owned(),
            super_class,
            num_fields: inherited_fields + own_fields,
            vtable,
        });
        id
    }

    /// Appends a new virtual method to the class, returning its vtable
    /// slot. Subclasses declared *after* this call inherit it.
    pub fn add_method(&mut self, class: ClassId, func: FuncId) -> u16 {
        let vt = &mut self.classes[class.index()].vtable;
        let slot = vt.len() as u16;
        vt.push(func);
        slot
    }

    /// Overrides an inherited vtable slot with a different implementation.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not exist on the class.
    pub fn override_method(&mut self, class: ClassId, slot: u16, func: FuncId) {
        let vt = &mut self.classes[class.index()].vtable;
        vt[slot as usize] = func;
    }

    /// Resolves labels, builds block tables, verifies, and returns the
    /// finished program with `entry` as its entry point.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if any used label is unbound or double-bound,
    /// a declared function has no body, the entry id is invalid, the
    /// program has more than [`ID_LIMIT`] functions or a function more
    /// than [`ID_LIMIT`] blocks, or the program fails verification.
    pub fn build(self, entry: FuncId) -> Result<Program, BuildError> {
        if entry.index() >= self.functions.len() {
            return Err(BuildError::BadEntry { func: entry });
        }
        let limit = ID_LIMIT as usize;
        if self.functions.len() > limit {
            return Err(BuildError::TooLarge {
                func: None,
                count: self.functions.len(),
            });
        }
        let mut functions = Vec::with_capacity(self.functions.len());
        for (i, fb) in self.functions.into_iter().enumerate() {
            let f = fb.finish(FuncId(i as u32))?;
            if f.block_count() > limit {
                return Err(BuildError::TooLarge {
                    func: Some(f.name().to_owned()),
                    count: f.block_count(),
                });
            }
            functions.push(f);
        }
        let classes = self
            .classes
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                Class::from_parts(
                    c.name,
                    ClassId(i as u32),
                    c.super_class,
                    c.num_fields,
                    c.vtable,
                )
            })
            .collect();
        let mut program = Program::from_parts(functions, classes, entry);
        let facts = verifier::analyze(&program)?;
        program.attach_facts(facts);
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal_program() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).ret_void();
        let p = pb.build(f).unwrap();
        assert_eq!(p.entry(), f);
        assert_eq!(p.total_blocks(), 1);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        let b = pb.function_mut(f);
        let l = b.new_label();
        b.goto(l); // never bound
        b.ret_void();
        match pb.build(f) {
            Err(BuildError::UnboundLabel { func, .. }) => assert_eq!(func, "main"),
            other => panic!("expected UnboundLabel, got {other:?}"),
        }
    }

    #[test]
    fn label_bound_at_end_of_code_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        let b = pb.function_mut(f);
        let l = b.new_label();
        b.goto(l);
        b.ret_void();
        b.bind(l); // binds past the last instruction
        assert!(matches!(pb.build(f), Err(BuildError::UnboundLabel { .. })));
    }

    #[test]
    fn rebinding_a_label_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        let b = pb.function_mut(f);
        let l = b.new_label();
        b.bind(l);
        b.nop();
        b.bind(l);
        b.ret_void();
        assert!(matches!(pb.build(f), Err(BuildError::RebindLabel { .. })));
    }

    #[test]
    fn missing_body_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).ret_void();
        let _g = pb.declare_function("empty", 0, false);
        assert!(matches!(pb.build(f), Err(BuildError::MissingBody { .. })));
    }

    #[test]
    fn bad_entry_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).ret_void();
        assert!(matches!(
            pb.build(FuncId(7)),
            Err(BuildError::BadEntry { .. })
        ));
    }

    /// One function over [`ID_LIMIT`] is refused before any is finished;
    /// the block limit is tested end to end in the workspace tests.
    #[test]
    fn more_functions_than_the_id_limit_is_an_error() {
        let mut pb = ProgramBuilder::new();
        for i in 0..=ID_LIMIT {
            let f = pb.declare_function(&format!("f{i}"), 0, false);
            pb.function_mut(f).ret_void();
        }
        match pb.build(FuncId(0)) {
            Err(BuildError::TooLarge { func: None, count }) => {
                assert_eq!(count, ID_LIMIT as usize + 1)
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn class_inheritance_flattens_fields_and_vtable() {
        let mut pb = ProgramBuilder::new();
        let base_m = pb.declare_function("Base.m", 1, true);
        pb.function_mut(base_m).iconst(1).ret();
        let sub_m = pb.declare_function("Sub.m", 1, true);
        pb.function_mut(sub_m).iconst(2).ret();
        let main = pb.declare_function("main", 0, false);
        pb.function_mut(main).ret_void();

        let base = pb.declare_class("Base", None, 2);
        let slot = pb.add_method(base, base_m);
        let sub = pb.declare_class("Sub", Some(base), 3);
        pb.override_method(sub, slot, sub_m);

        let p = pb.build(main).unwrap();
        assert_eq!(p.class(base).num_fields(), 2);
        assert_eq!(p.class(sub).num_fields(), 5);
        assert_eq!(p.class(base).resolve(slot), base_m);
        assert_eq!(p.class(sub).resolve(slot), sub_m);
        assert_eq!(p.class(sub).super_class(), Some(base));
    }

    #[test]
    fn func_name_lookup() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("main", 0, false);
        pb.function_mut(f).ret_void();
        assert_eq!(pb.func_id("main"), Some(f));
        assert_eq!(pb.func_id("nope"), None);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_function_name_panics() {
        let mut pb = ProgramBuilder::new();
        pb.declare_function("f", 0, false);
        pb.declare_function("f", 0, false);
    }

    #[test]
    fn builder_len_tracking() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_function("f", 0, false);
        let b = pb.function_mut(f);
        assert!(b.is_empty());
        b.iconst(1).pop();
        assert_eq!(b.len(), 2);
        assert_eq!(b.name(), "f");
    }
}
