"""Two-layer convolutional teacher-student training with a shortcut connection.

Closed-form population landscape, normalized gradient descent with warmup
schedules, a Monte-Carlo oracle certifying the closed forms, dissipativity
region checks, and a reproduction harness for the success-rate tables. Each name
is imported from the module that defines it, e.g. `from shortcut_gd.optimizer import run`.
"""

__version__ = "0.1.0"
