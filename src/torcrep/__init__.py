"""Exact toric resolutions of abelian Gorenstein quotient singularities.

Construct crepant and Hilbert-basis resolutions of C^n/G for finite
abelian diagonal G in SL(n, C), and certify that each exceptional divisor
is normally embedded with tubular neighborhood equal to the total space
of its weighted line bundle (the canonical bundle in the crepant case).
"""

__version__ = "0.1.0"
