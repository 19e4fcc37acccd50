"""Exact computations for the nullity-2 extension of gl3 over a quantum torus:
free-field module, contravariant hermitian form, and unitarity scans."""
