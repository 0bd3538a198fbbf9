"""Equilibrium solvers for two-player quantum zero-sum games.

Players submit density matrices, a referee measures their product state with
a POVM, and payoffs are bounded utilities.  The package provides the game
model (payoff observables, gradients, duality gap), the regularizer geometry
(von Neumann entropy and squared Frobenius), a hierarchy of solvers (matrix
multiplicative weights, mirror prox, and their optimistic variants), and a
CLI harness for generating games, solving them, and comparing variants.
Import each name from its module (`qzsg.game`, `qzsg.solvers`, ...): the
package root loads none of them.
"""

__version__ = "0.1.0"
