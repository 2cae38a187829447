pub fn not_in_scope() -> usize {
    1
}
