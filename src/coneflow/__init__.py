"""Numerical laboratory for conical geometric flow on elliptic-fibration bases.

Builds synthetic base geometries on the flat torus, solves the limiting
conical equation by Newton continuation, evolves the base-reduced flow,
and verifies the convergence statements and a priori estimates at desk
scale.  See the README for the module map and the CLI surface.  Every
name is imported from its own module (coneflow.flow_engine, ...); the
package binds none, so importing it loads no submodule.
"""
