"""Cox-graded Weyl algebra computations over smooth toric fans."""
