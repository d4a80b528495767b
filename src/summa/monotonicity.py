"""Empty.  The sequence-class records (X almost increasing, Q
delta-quasi-monotone, the weight monotonicity) are record builders in
``checker``, each one generator like every other record.  The module stays
only because ``perfbench/tracing.py`` names it among the modules whose self
time it reports; it goes when that list drops it."""

__all__ = []
