"""Face algebras of quivers, their coactions, and quadratic quotients."""
