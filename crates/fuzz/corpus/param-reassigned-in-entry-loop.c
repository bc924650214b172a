// Regression (found while measuring the register allocator): the block
// cleaner ran before allocation and threaded the entry block, an empty
// landing pad, into the loop header it jumped to. The allocator then put
// the parameter's shadow copy (`r1 = copy r0`) at the top of the entry
// block, which was now the loop header, so every trip reset `n` and the
// loop never ended; at 2 registers allocation did not converge. Cleaning
// now runs once, after allocation, and the allocator asserts in debug
// builds that no edge re-enters the entry block of a function with
// parameters. See driver::pipeline::run_fused_chain and
// regalloc::alloc::allocate_function_in. Prints 0.
int f(int n) { while (n > 0) { n = n - 1; } return n; }
int main() { print_int(f(5)); return 0; }
